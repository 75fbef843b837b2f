package rangesvc

import (
	"bytes"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// batchRig is a rig whose Range enables the outbound wire coalescer.
func batchRig(t testing.TB, maxEvents int, maxDelay time.Duration) *rig {
	t.Helper()
	clk := clock.NewManual(epoch)
	rng := server.New(server.Config{
		Name:           "level-10",
		Clock:          clk,
		BatchMaxEvents: maxEvents,
		BatchMaxDelay:  maxDelay,
	})
	net := transport.NewMemory(transport.MemoryConfig{Clock: clk})
	host, err := NewHost(rng, net, clk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{rng: rng, host: host, net: net, clk: clk}
}

// tap attaches a raw endpoint that records every wire message sent to id.
func tap(t testing.TB, net *transport.Memory, id guid.GUID) func() []wire.Message {
	t.Helper()
	var mu sync.Mutex
	var got []wire.Message
	if _, err := net.Attach(id, func(m wire.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return func() []wire.Message {
		mu.Lock()
		defer mu.Unlock()
		out := make([]wire.Message, len(got))
		copy(out, got)
		return out
	}
}

func mkReading(src guid.GUID, seq uint64) event.Event {
	return event.New(ctxtype.TemperatureCelsius, src, seq, epoch, map[string]any{"value": float64(seq)})
}

func TestCoalescedRemoteDeliveryMessageBudget(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	dest := guid.New(guid.KindApplication)
	msgs := tap(t, r.net, dest)
	src := guid.New(guid.KindDevice)

	// 10 deliveries at batch size 4: two full batches flush on fill; the
	// trailing partial waits for the delay timer.
	for i := 0; i < 10; i++ {
		r.host.sendEvent(dest, mkReading(src, uint64(i)))
	}
	waitFor(t, func() bool { return len(msgs()) == 2 })
	r.clk.Advance(50 * time.Millisecond)
	waitFor(t, func() bool { return len(msgs()) == 3 })

	var seqs []uint64
	for _, m := range msgs() {
		if m.Kind != wire.KindEventBatch {
			t.Fatalf("got %s message, want %s", m.Kind, wire.KindEventBatch)
		}
		if m.Batch == nil || len(m.Batch.Events) > 4 {
			t.Fatalf("batch %+v exceeds BatchMaxEvents=4 or is missing", m.Batch)
		}
		for _, e := range m.Batch.Events {
			seqs = append(seqs, e.Seq)
		}
	}
	if len(seqs) != 10 {
		t.Fatalf("delivered %d events, want 10", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("coalescing reordered events: %v", seqs)
		}
	}
	if got := r.rng.RemoteBatchesSent.Value(); got != 3 {
		t.Fatalf("RemoteBatchesSent = %d, want 3 (= ceil(10/4))", got)
	}
	if got := r.rng.RemoteEventsSent.Value(); got != 10 {
		t.Fatalf("RemoteEventsSent = %d, want 10", got)
	}
}

func TestBatchDelayFlushesPartialBatch(t *testing.T) {
	r := batchRig(t, 64, 10*time.Millisecond)
	defer r.close()
	dest := guid.New(guid.KindApplication)
	msgs := tap(t, r.net, dest)

	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 1))
	if len(msgs()) != 0 {
		t.Fatal("partial batch flushed before the delay elapsed")
	}
	r.clk.Advance(10 * time.Millisecond)
	waitFor(t, func() bool { return len(msgs()) == 1 })
	if b := msgs()[0].Batch; b == nil || len(b.Events) != 1 {
		t.Fatalf("flushed %+v, want one event", b)
	}
}

// TestUnbatchedHostSendsOneEventBatches: with BatchMaxEvents unset every
// delivery is its own event.batch of one event, shipped at once through
// the endpoint's coalescer — the same message form, and the same flow
// control (TestUnbatchedHostThrottlesOnCreditCollapse), as batched traffic.
func TestUnbatchedHostSendsOneEventBatches(t *testing.T) {
	r := newRig(t) // BatchMaxEvents unset: one-event batches
	defer r.close()
	dest := guid.New(guid.KindApplication)
	msgs := tap(t, r.net, dest)
	src := guid.New(guid.KindDevice)

	r.host.sendEvent(dest, mkReading(src, 7))
	r.host.sendEvents(dest, []event.Event{mkReading(src, 8), mkReading(src, 9)})
	waitFor(t, func() bool { return len(msgs()) == 3 })
	for i, m := range msgs() {
		if m.Kind != wire.KindEventBatch || m.Batch == nil || len(m.Batch.Events) != 1 {
			t.Fatalf("message %d = %s %+v, want a one-event %s", i, m.Kind, m.Batch, wire.KindEventBatch)
		}
		if got := m.Batch.Events[0].Seq; got != uint64(7+i) {
			t.Fatalf("message %d carries seq %d, want %d", i, got, 7+i)
		}
	}
	if b, e := r.rng.RemoteBatchesSent.Value(), r.rng.RemoteEventsSent.Value(); b != 3 || e != 3 {
		t.Fatalf("RemoteBatchesSent/RemoteEventsSent = %d/%d, want 3/3", b, e)
	}
}

// TestUnbatchedHostThrottlesOnCreditCollapse: a Range with BatchMaxEvents
// unset still ships through the endpoint's coalescer, so a receiver whose
// acks report drops throttles it: one-event batches stop leaving at once
// and wait for the penalty-stretched BatchMaxDelay timer, which ships the
// backlog in one paced flush.
func TestUnbatchedHostThrottlesOnCreditCollapse(t *testing.T) {
	r := batchRig(t, 0, 0) // BatchMaxEvents 0 and BatchMaxDelay defaulted
	defer r.close()
	recv := newRawPeer(t, r.net)
	src := guid.New(guid.KindDevice)
	stats := r.rng.StatsMap
	sent := r.rng.RemoteBatchesSent.Value // counted as the send returns

	r.host.sendEvent(recv.id, mkReading(src, 1))
	if got := sent(); got != 1 {
		t.Fatalf("healthy one-event batch: %d messages sent, want 1 at once", got)
	}
	// The receiver acks with a baseline, then with 50 fresh drops.
	for _, dropped := range []uint64{0, 50} {
		ack, err := wire.NewEventBatchAck(recv.id, r.rng.ServerID(), wire.BatchCredit{Events: 1, Dropped: dropped, QueueFree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.ep.Send(ack); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return stats()["remote.backpressure.throttle_events"] > 0 })

	r.host.sendEvents(recv.id, []event.Event{mkReading(src, 2), mkReading(src, 3), mkReading(src, 4)})
	if got := sent(); got != 1 {
		t.Fatalf("throttled link still shipped at once: %d messages, want 1", got)
	}
	r.clk.Advance(server.DefaultBatchMaxDelay) // the unstretched delay: too early
	if got := sent(); got != 1 {
		t.Fatalf("throttled flush fired at the unstretched delay: %d messages", got)
	}
	r.clk.Advance(server.DefaultBatchMaxDelay) // penalty 2 reached
	if got := sent(); got != 4 {
		t.Fatalf("stretched timer flush: %d messages sent, want 4", got)
	}
	waitFor(t, func() bool { return len(recv.received(wire.KindEventBatch)) == 4 })
	for i, m := range recv.received(wire.KindEventBatch) {
		if m.Batch == nil || len(m.Batch.Events) != 1 || m.Batch.Events[0].Seq != uint64(i+1) {
			t.Fatalf("message %d = %+v, want a one-event batch carrying seq %d", i, m.Batch, i+1)
		}
	}
	if got := stats()["remote.flushes"]; got != 2 {
		t.Fatalf("remote.flushes = %v, want 2: the backlog must leave in one timer-paced flush", got)
	}
}

// TestConnectorPublishAllIngested sends a remote CE's batch over the wire
// and checks the Range ingests it through the batched dispatch path,
// applying the per-event rules: spoofed sources and invalid events are
// dropped without poisoning their neighbours, and a client-supplied Range
// stamp is stripped.
func TestConnectorPublishAllIngested(t *testing.T) {
	r := newRig(t)
	defer r.close()
	ceID := guid.New(guid.KindDevice)
	c, err := NewConnector(ceID, "remote-thermo", r.net, nil, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(r.rng.ServerID(), profile.Profile{
		Outputs: []ctxtype.Type{ctxtype.TemperatureCelsius},
		Quality: 0.9,
	}, false); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []event.Event
	if _, err := r.rng.Mediator().Subscribe(guid.New(guid.KindSoftware),
		event.Filter{Type: ctxtype.TemperatureCelsius}, func(e event.Event) {
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		}, mediator.SubOptions{}); err != nil {
		t.Fatal(err)
	}

	invalid := mkReading(ceID, 9)
	invalid.ID = guid.Nil // structurally invalid: must not poison the batch
	batch := []event.Event{
		mkReading(ceID, 1),
		mkReading(guid.New(guid.KindDevice), 2), // spoofed: not the sender
		invalid,
		mkReading(ceID, 3).WithRange(guid.New(guid.KindRange)), // forged sibling-Range stamp
	}
	if err := c.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].Seq != 1 || got[1].Seq != 3 {
		t.Fatalf("wrong events ingested: %v", got)
	}
	for _, e := range got {
		if e.Range != r.rng.ID() {
			t.Fatal("ingested event not stamped with the range id")
		}
	}
}

func TestSendFailureMetricAndTransitionLog(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	r := newRig(t)
	defer r.close()
	dest := guid.New(guid.KindApplication) // never attached: sends fail

	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 1))
	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 2))
	if got := r.rng.RemoteSendFailures.Value(); got != 2 {
		t.Fatalf("RemoteSendFailures = %d, want 2", got)
	}
	if n := strings.Count(logged.String(), "failing"); n != 1 {
		t.Fatalf("logged %d failure transitions for 2 consecutive failures, want 1\n%s", n, logged.String())
	}

	// The endpoint appears: the next send succeeds and logs one recovery.
	msgs := tap(t, r.net, dest)
	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 3))
	waitFor(t, func() bool { return len(msgs()) == 1 })
	if n := strings.Count(logged.String(), "recovered"); n != 1 {
		t.Fatalf("logged %d recovery transitions, want 1\n%s", n, logged.String())
	}
	if got := r.rng.RemoteSendFailures.Value(); got != 2 {
		t.Fatalf("successful send must not count as failure; got %d", got)
	}

	stats := r.rng.StatsMap()
	if got := stats["remote.send_failures"]; got != 2 {
		t.Fatalf("StatsMap remote.send_failures = %v, want 2", got)
	}
	if got := stats["remote.events_sent"]; got != 1 {
		t.Fatalf("StatsMap remote.events_sent = %v, want 1", got)
	}
}

// TestPartitionedSendCountsFailure: a send into a partition of the memory
// network fails, as one on a broken TCP connection does, so it counts in
// RemoteSendFailures; once the partition heals the next send arrives and
// counts nothing.
func TestPartitionedSendCountsFailure(t *testing.T) {
	r := newRig(t)
	defer r.close()
	dest := guid.New(guid.KindApplication)
	msgs := tap(t, r.net, dest)

	r.net.Partition(dest)
	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 1))
	if got := r.rng.RemoteSendFailures.Value(); got != 1 {
		t.Fatalf("RemoteSendFailures = %d after a send into a partition, want 1", got)
	}

	r.net.Unpartition(dest)
	r.host.sendEvent(dest, mkReading(guid.New(guid.KindDevice), 2))
	waitFor(t, func() bool { return len(msgs()) == 1 })
	if got := r.rng.RemoteSendFailures.Value(); got != 1 {
		t.Fatalf("RemoteSendFailures = %d after the partition healed, want 1", got)
	}
}

// TestBatchFedRemoteCAABudget drives the whole batch-native delivery chain:
// sensor emissions cross the mediator's batched root subscription into the
// remote CAA's proxy, whose ConsumeAll feeds the outbound coalescer a slice
// per run — and the wire cost stays exactly ⌈N/BatchMaxEvents⌉ messages.
func TestBatchFedRemoteCAABudget(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	thermo := sensor.NewTemperatureSensor("probe", location.Ref{}, 294, 2, 1, r.clk)
	if err := r.rng.AddEntity(thermo); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []event.Event
	appID := guid.New(guid.KindApplication)
	app, err := NewConnector(appID, "remote-app", r.net, func(e event.Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Register(r.rng.ServerID(), profile.Profile{}, true); err != nil {
		t.Fatal(err)
	}
	q := query.New(appID, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := app.Submit(q); err != nil {
		t.Fatal(err)
	}

	const n = 10
	base := r.rng.RemoteBatchesSent.Value()
	baseEvents := r.rng.RemoteEventsSent.Value()
	for i := 0; i < n; i++ {
		if err := thermo.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Two full batches leave on fill; the trailing partial (10 mod 4 = 2)
	// is held for the delay timer however the delivery runs were sliced.
	waitFor(t, func() bool {
		r.host.mu.Lock()
		q := r.host.out[appID]
		r.host.mu.Unlock()
		return q != nil && q.PendingLen() == n%4
	})
	r.clk.Advance(50 * time.Millisecond)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= n
	})
	if sent := r.rng.RemoteBatchesSent.Value() - base; sent != 3 {
		t.Fatalf("RemoteBatchesSent = %d, want 3 (= ceil(10/4))", sent)
	}
	if sent := r.rng.RemoteEventsSent.Value() - baseEvents; sent != n {
		t.Fatalf("RemoteEventsSent = %d, want %d", sent, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("remote CAA received %d events, want %d", len(got), n)
	}
}

// blockingConnector attaches a connector whose onEvent parks on gate, so
// its bounded delivery queue can be overflowed deterministically.
func blockingConnector(t *testing.T, r *rig, id guid.GUID, gate chan struct{}) *Connector {
	t.Helper()
	c, err := NewConnector(id, "slow-app", r.net, func(event.Event) {
		<-gate
	}, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReceiverOverloadThrottlesHostCoalescer: a connector that cannot keep
// up reports its delivery-queue drops on event.batch acks, and the host's
// per-endpoint coalescer throttles its flush rate in response — visible in
// the Range's backpressure gauges.
func TestReceiverOverloadThrottlesHostCoalescer(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	dest := guid.New(guid.KindApplication)
	gate := make(chan struct{})
	c := blockingConnector(t, r, dest, gate)
	defer c.Close()
	c.SetDeliveryQueueCap(2)

	src := guid.New(guid.KindDevice)
	burst := func(base, n int) []event.Event {
		out := make([]event.Event, n)
		for i := range out {
			out[i] = mkReading(src, uint64(base+i))
		}
		return out
	}
	// Three full batches against a blocked two-slot queue: overflow drops
	// are certain, their acks must throttle the sender. Drop-bearing
	// reports are rate-limited to one per ack window, so the manual clock
	// must run the windows out for the later reports to leave.
	r.host.sendEvents(dest, burst(0, 12))
	r.host.mu.Lock()
	q := r.host.out[dest]
	r.host.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for !q.Throttled() {
		if time.Now().After(deadline) {
			t.Fatal("collapsing credit never throttled the host coalescer")
		}
		r.clk.Advance(2 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	if got := r.rng.FlowStats().DropsReported.Value(); got == 0 {
		t.Fatal("receiver drops never reached the sender's stats")
	}
	if got := r.rng.StatsMap()["remote.backpressure.throttled"]; got != 1 {
		t.Fatalf("remote.backpressure.throttled = %v, want 1", got)
	}
	if got := c.DeliveryDrops(); got == 0 {
		t.Fatal("connector reported no delivery drops")
	}
	close(gate) // release the consumer
}

// TestHostAcksPublishesWithCredit: a remote CE's batched publish is
// acknowledged with the Range's dispatch-drop credit, so remote publishers
// can observe the drops their traffic causes.
func TestHostAcksPublishesWithCredit(t *testing.T) {
	r := newRig(t)
	defer r.close()
	ceID := guid.New(guid.KindDevice)
	c, err := NewConnector(ceID, "remote-thermo", r.net, nil, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(r.rng.ServerID(), profile.Profile{
		Outputs: []ctxtype.Type{ctxtype.TemperatureCelsius},
		Quality: 0.9,
	}, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.RemoteCredit(); ok {
		t.Fatal("credit reported before any batch was published")
	}
	if err := c.PublishAll([]event.Event{mkReading(ceID, 1), mkReading(ceID, 2)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, ok := c.RemoteCredit()
		return ok
	})
	credit, _ := c.RemoteCredit()
	if credit.Events != 2 {
		t.Fatalf("ack credit events = %d, want 2", credit.Events)
	}
}
