package rangesvc

// Tests for the flow-control correctness rules: per-endpoint attributed ack
// credit, ack coalescing under floods of one-event batches, piggybacked
// credit on bidirectional links, and deterministic Connector.Close
// drain-or-discard.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/mediator"
	"sci/internal/profile"
	"sci/internal/transport"
	"sci/internal/wire"
)

// rawPeer attaches a bare endpoint that records everything sent to it and
// can send raw wire messages — a stand-in for a remote publisher, which
// must register before the host ingests its batches.
type rawPeer struct {
	id guid.GUID
	ep transport.Endpoint
	mu sync.Mutex
	in []wire.Message
}

func newRawPeer(t testing.TB, net *transport.Memory) *rawPeer {
	t.Helper()
	p := &rawPeer{id: guid.New(guid.KindDevice)}
	ep, err := net.Attach(p.id, func(m wire.Message) {
		p.mu.Lock()
		p.in = append(p.in, m)
		p.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ep = ep
	return p
}

func (p *rawPeer) received(kind wire.Kind) []wire.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []wire.Message
	for _, m := range p.in {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

// register registers the peer with the host at srv as a remote CE and
// waits for the host's answer.
func (p *rawPeer) register(t *testing.T, srv guid.GUID) {
	t.Helper()
	m, err := wire.NewMessage(p.id, srv, wire.KindRegister, registerBody{Profile: profile.Profile{Name: "raw-peer"}})
	if err != nil {
		t.Fatal(err)
	}
	m.Corr = guid.New(guid.KindQuery)
	if err := p.ep.Send(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(p.received(wire.KindRegisterAck)) == 1 })
	var ack registerAckBody
	if err := p.received(wire.KindRegisterAck)[0].DecodeBody(&ack); err != nil || ack.Error != "" {
		t.Fatalf("register: %v %q", err, ack.Error)
	}
}

func (p *rawPeer) sendBatch(t testing.TB, to guid.GUID, n int, base uint64) {
	t.Helper()
	events := make([]event.Event, n)
	for i := range events {
		events[i] = mkReading(p.id, base+uint64(i))
	}
	m, err := wire.NewNativeEventBatch(p.id, to, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ep.Send(m); err != nil {
		t.Fatal(err)
	}
}

// TestUnbatchedPublisherAckedOncePerWindow: a default-configured Range
// (one-event batches) still acks the publishers of one-event batches — they must
// learn of the drops they cause — and a 1000-message healthy flood accrues
// into ONE deferred report per ack window, not one reverse frame per
// ingested message.
func TestUnbatchedPublisherAckedOncePerWindow(t *testing.T) {
	r := newRig(t) // BatchMaxEvents unset: one-event batches
	defer r.close()
	pub := newRawPeer(t, r.net)
	srv := r.rng.ServerID()
	pub.register(t, srv)

	pub.sendBatch(t, srv, 1, 1)
	waitFor(t, func() bool { return len(pub.received(wire.KindEventBatchAck)) == 1 })

	const flood = 1000
	base := r.rng.DispatchStats().Published
	for i := 0; i < flood; i++ {
		pub.sendBatch(t, srv, 1, uint64(100+i))
	}
	waitFor(t, func() bool { return r.rng.DispatchStats().Published >= base+flood })
	// The flood is healthy traffic (no drops): every report after the
	// leading one is redundant and must coalesce behind the window timer.
	if got := len(pub.received(wire.KindEventBatchAck)); got != 1 {
		t.Fatalf("flood provoked %d standalone acks, want the initial 1", got)
	}
	r.clk.Advance(r.host.maxDelay)
	waitFor(t, func() bool { return len(pub.received(wire.KindEventBatchAck)) == 2 })
	acks := pub.received(wire.KindEventBatchAck)
	credit, ok := acks[1].BatchCreditInfo()
	if !ok {
		t.Fatal("deferred ack carries no credit")
	}
	if credit.Events != flood {
		t.Fatalf("deferred ack covers %d events, want %d", credit.Events, flood)
	}
	if got := r.host.AcksSent.Value(); got != 2 {
		t.Fatalf("AcksSent = %d, want 2 for 1001 ingested messages", got)
	}
}

// TestConnectorPublishIsAcked: Connector.Publish ships a one-event batch, so
// a single-event remote CE receives the Range's credit like any other.
func TestConnectorPublishIsAcked(t *testing.T) {
	r := newRig(t)
	defer r.close()
	c, err := NewConnector(guid.New(guid.KindDevice), "single-event-ce", r.net, nil, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(r.rng.ServerID(), profile.Profile{}, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.RemoteCredit(); ok {
		t.Fatal("credit before any publish")
	}
	if err := c.Publish(mkReading(c.ID(), 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := c.RemoteCredit(); return ok })
	if credit, _ := c.RemoteCredit(); credit.Events != 1 || credit.Dropped != 0 {
		t.Fatalf("credit = %+v, want 1 event, no drops", credit)
	}
}

// TestAckCreditAttributedToEndpoint: two remote publishers share a Range
// whose lone subscriber is overflowing under one publisher's flood. The
// flooder's ack must carry the drops, the innocent endpoint's must not —
// per-publisher attribution, not the Range-wide total.
func TestAckCreditAttributedToEndpoint(t *testing.T) {
	r := batchRig(t, 4, 2*time.Millisecond)
	defer r.close()
	srv := r.rng.ServerID()
	flooder := newRawPeer(t, r.net)
	innocent := newRawPeer(t, r.net)
	flooder.register(t, srv)
	innocent.register(t, srv)

	// A parked subscriber with a tiny ring: the flood must overflow it.
	entered := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	var delivered atomic.Int64
	if _, err := r.rng.Mediator().Subscribe(guid.New(guid.KindSoftware),
		event.Filter{}, func(event.Event) {
			if delivered.Add(1) == 1 {
				entered <- struct{}{}
				<-gate
			}
		}, mediator.SubOptions{QueueLen: 2}); err != nil {
		t.Fatal(err)
	}
	flooder.sendBatch(t, srv, 1, 1)
	<-entered // ring empty, delivery goroutine parked

	flooder.sendBatch(t, srv, 100, 10) // 100 into 2 slots: ~98 drops, all the flooder's
	// The drop-bearing report is rate-limited to one per ack window (the
	// figure is cumulative): wait for the ingest, then run the window out.
	waitFor(t, func() bool { return r.rng.DispatchStats().Dropped >= 98 })
	r.clk.Advance(2 * time.Millisecond)
	waitFor(t, func() bool { return len(flooder.received(wire.KindEventBatchAck)) >= 2 })
	innocent.sendBatch(t, srv, 2, 1)
	waitFor(t, func() bool { return len(innocent.received(wire.KindEventBatchAck)) >= 1 })

	facks := flooder.received(wire.KindEventBatchAck)
	fcredit, _ := facks[len(facks)-1].BatchCreditInfo()
	if fcredit.Dropped == 0 {
		t.Fatal("flooder's ack reports no drops despite overflowing the ring")
	}
	iacks := innocent.received(wire.KindEventBatchAck)
	icredit, _ := iacks[len(iacks)-1].BatchCreditInfo()
	if icredit.Dropped != 0 {
		t.Fatalf("innocent endpoint blamed for %d drops caused by the flooder", icredit.Dropped)
	}
	// The attribution table agrees: every drop is the flooder's (including
	// its own queued events the innocent batch later evicted), none the
	// innocent's.
	if got := r.rng.DispatchDropsFor(flooder.id); got < fcredit.Dropped {
		t.Fatalf("DispatchDropsFor(flooder) = %d, below the acked %d", got, fcredit.Dropped)
	}
	if got := r.rng.DispatchDropsFor(innocent.id); got != 0 {
		t.Fatalf("DispatchDropsFor(innocent) = %d, want 0", got)
	}
}

// TestPiggybackedCreditSuppressesStandaloneAcks: on a hot bidirectional
// link, credit reports in both directions ride the opposing event.batch
// traffic; the standalone ack frames stay at the unavoidable leading edge.
func TestPiggybackedCreditSuppressesStandaloneAcks(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	srv := r.rng.ServerID()

	var received atomic.Int64
	c, err := NewBatchConnector(guid.New(guid.KindApplication), "duplex", r.net,
		func(events []event.Event) { received.Add(int64(len(events))) }, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(srv, profile.Profile{}, true); err != nil {
		t.Fatal(err)
	}

	src := guid.New(guid.KindDevice)
	burst := func(from guid.GUID, base, n int) []event.Event {
		out := make([]event.Event, n)
		for i := range out {
			out[i] = mkReading(from, uint64(base+i))
		}
		return out
	}
	// Prime both directions: the leading-edge reports are standalone. The
	// connector publishes as itself (a wire client may only publish under
	// its own GUID).
	r.host.sendEvents(c.ID(), burst(src, 0, 4)) // full batch: size flush, no timer needed
	waitFor(t, func() bool { return c.AcksSent() == 1 && received.Load() == 4 })
	pubBase := r.rng.DispatchStats().Published
	if err := c.PublishAll(burst(c.ID(), 100, 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.host.AcksSent.Value() == 1 })

	// Hot phase: 20 full batches each way, interleaved. Every report now
	// has reverse traffic to ride: the host's pending ack leaves on its
	// next delivery batch, the connector's on its next publish.
	for i := 0; i < 20; i++ {
		if err := c.PublishAll(burst(c.ID(), 1000+i*4, 4)); err != nil {
			t.Fatal(err)
		}
		want := pubBase + uint64(4*(i+2))
		waitFor(t, func() bool { return r.rng.DispatchStats().Published >= want })
		r.host.sendEvents(c.ID(), burst(src, 2000+i*4, 4))
		wantRecv := int64(4 * (i + 2))
		waitFor(t, func() bool { return received.Load() >= wantRecv })
	}

	hostStandalone := r.host.AcksSent.Value()
	connStandalone := c.AcksSent()
	if r.host.AcksPiggybacked.Value() == 0 || c.AcksPiggybacked() == 0 {
		t.Fatalf("no piggybacked credit on a hot bidirectional link (host %d, conn %d)",
			r.host.AcksPiggybacked.Value(), c.AcksPiggybacked())
	}
	// PR 4 shipped one standalone ack per received batch: 21 each way. The
	// acceptance bar is ≤55%; the leading edge alone should leave ~5%.
	if hostStandalone > 11 || connStandalone > 11 {
		t.Fatalf("standalone acks host=%d conn=%d of 21 batches each way, want ≤11 (55%%)",
			hostStandalone, connStandalone)
	}
	// The piggybacked reports really arrived: both sides hold credit.
	if _, ok := c.RemoteCredit(); !ok {
		t.Fatal("connector never saw the host's credit")
	}
}

// TestConnectorCloseCountsQueuedDrops: closing a connector whose delivery
// queue still holds events discards them deterministically, counts them in
// DeliveryDrops, and the figure is stable afterwards.
func TestConnectorCloseCountsQueuedDrops(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var first atomic.Bool
	c, err := NewConnector(guid.New(guid.KindApplication), "doomed", r.net, func(event.Event) {
		if first.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-gate
		}
	}, r.clk)
	if err != nil {
		t.Fatal(err)
	}

	// One event parks the drain goroutine; five more wait in the queue.
	c.enqueueDeliveries([]event.Event{mkReading(guid.New(guid.KindDevice), 0)})
	<-entered
	events := make([]event.Event, 5)
	for i := range events {
		events[i] = mkReading(guid.New(guid.KindDevice), uint64(i+1))
	}
	c.enqueueDeliveries(events)

	// Close joins the drain goroutine, and the handler is still parked on
	// gate — run Close concurrently, observe the queued events get
	// dropped, then release the handler so Close can finish the join.
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for c.DeliveryDrops() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("DeliveryDrops = %d, want the 5 queued events", c.DeliveryDrops())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handler invocation was still in flight")
	default:
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	// Stable: post-close enqueues neither deliver nor mutate the counter.
	c.enqueueDeliveries(events)
	if got := c.DeliveryDrops(); got != 5 {
		t.Fatalf("DeliveryDrops moved after close: %d", got)
	}
}

// TestConnectorCloseVsDrainRace hammers enqueue against Close under -race:
// the drain goroutine must exit (not park on a non-empty queue) and the
// drop accounting must stay consistent.
func TestConnectorCloseVsDrainRace(t *testing.T) {
	defer leak.Check(t)()
	for round := 0; round < 20; round++ {
		net := transport.NewMemory(transport.MemoryConfig{})
		var consumed atomic.Int64
		c, err := NewBatchConnector(guid.New(guid.KindApplication), "racer", net,
			func(events []event.Event) {
				consumed.Add(int64(len(events)))
				time.Sleep(time.Microsecond)
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeliveryQueueCap(32)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				src := guid.New(guid.KindDevice)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.enqueueDeliveries([]event.Event{mkReading(src, uint64(i))})
				}
			}(g)
		}
		time.Sleep(time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		drops := c.DeliveryDrops()
		if drops != c.DeliveryDrops() {
			t.Fatal("DeliveryDrops unstable after close")
		}
		_ = net.Close()
	}
}

// TestBatchConnectorReceivesWholeSlices: a batch connector's handler sees
// the backlog as slices, not single events.
func TestBatchConnectorReceivesWholeSlices(t *testing.T) {
	r := batchRig(t, 8, 50*time.Millisecond)
	defer r.close()
	var mu sync.Mutex
	var calls int
	var total int
	c, err := NewBatchConnector(guid.New(guid.KindApplication), "batcher", r.net,
		func(events []event.Event) {
			mu.Lock()
			calls++
			total += len(events)
			mu.Unlock()
		}, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src := guid.New(guid.KindDevice)
	burst := make([]event.Event, 8)
	for i := range burst {
		burst[i] = mkReading(src, uint64(i))
	}
	r.host.sendEvents(c.ID(), burst)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 8
	})
	mu.Lock()
	defer mu.Unlock()
	if calls >= total {
		t.Fatalf("%d handler calls for %d events: backlog not delivered as slices", calls, total)
	}
}
