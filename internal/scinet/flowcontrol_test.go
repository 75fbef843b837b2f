package scinet

import (
	"encoding/json"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/overlay"
)

// TestInterestRefcountSurvivesFirstWithdrawal: two SubscribeRemote calls
// sharing one filter keep the interest announced (and the peer's tap up)
// until the second cancellation — the first UnsubscribeRemote must not
// silence the survivor.
func TestInterestRefcountSurvivesFirstWithdrawal(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	first, second := newCounter(), newCounter()
	rec1, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, first.handle)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, second.handle)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	if err := fB.UnsubscribeRemote(rec1); err != nil {
		t.Fatal(err)
	}
	// Give any withdrawal gossip time to land; the interest must survive.
	time.Sleep(20 * time.Millisecond)
	if !fA.knowsInterest(fB.NodeID()) || !fA.hasTap() {
		t.Fatal("first withdrawal of a shared filter silenced the surviving subscription")
	}

	const n = 8
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return second.total() >= n })
	if !second.exactlyOnce(n) {
		t.Fatalf("survivor deliveries not exactly-once: %d", second.total())
	}
	if got := first.total(); got != 0 {
		t.Fatalf("cancelled subscription still delivered %d events", got)
	}

	// The last reference withdraws for real.
	if err := fB.UnsubscribeRemote(rec2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !fA.knowsInterest(fB.NodeID()) && !fA.hasTap() })
}

// TestTypedTapsRideExactIndex: a peer's typed interest produces a typed
// mediator tap that the dispatch index resolves without residual scanning,
// so cross-range forwarding stops dragging the publisher's index-hit
// ratio; a wildcard interest falls back to the residual tap.
func TestTypedTapsRideExactIndex(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })
	if taps := fA.tapTypes(); !taps[ctxtype.TemperatureCelsius] || len(taps) != 1 {
		t.Fatalf("taps = %v, want exactly the typed temperature tap", taps)
	}

	const n = 16
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("typed-tap deliveries not exactly-once: %d", recv.total())
	}
	st := fn.ranges[0].DispatchStats()
	if st.ResidualScanned != 0 {
		t.Fatalf("typed tap still scanned the residual tier %d times", st.ResidualScanned)
	}
	if ratio := fn.ranges[0].Mediator().IndexHitRatio(); ratio != 1 {
		t.Fatalf("publisher index-hit ratio = %v with typed taps, want 1", ratio)
	}

	// A wildcard interest cannot ride the exact index: the taps collapse to
	// the single residual tap, the pre-typed-taps behaviour.
	wrec, err := fB.SubscribeRemote(guid.New(guid.KindApplication), event.Filter{}, recv.handle)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		taps := fA.tapTypes()
		return len(taps) == 1 && taps[ctxtype.Wildcard]
	})
	// Withdrawing it restores the typed tap.
	if err := fB.UnsubscribeRemote(wrec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		taps := fA.tapTypes()
		return len(taps) == 1 && taps[ctxtype.TemperatureCelsius]
	})
}

// TestDesiredTapTypesDedup covers the tap-derivation rules: hierarchical
// overlap keeps only the shallowest covering type, any untyped filter (or
// an equivalence that would double-match one event) forces the wildcard
// fallback.
func TestDesiredTapTypesDedup(t *testing.T) {
	reg := ctxtype.NewRegistry()
	p1, p2 := guid.New(guid.KindServer), guid.New(guid.KindServer)

	// Hierarchical overlap: the ancestor covers its descendant.
	types, wildcard := desiredTapTypesLocked(map[guid.GUID][]event.Filter{
		p1: {{Type: ctxtype.TemperatureCelsius}, {Type: "temperature"}},
		p2: {{Type: ctxtype.LocationSightingDoor}},
	}, reg)
	if wildcard {
		t.Fatal("typed interests fell back to wildcard")
	}
	if len(types) != 2 || types[0] != "temperature" || types[1] != ctxtype.LocationSightingDoor {
		t.Fatalf("deduped taps = %v, want [temperature location.sighting.door]", types)
	}

	// An untyped filter forces the residual tap.
	_, wildcard = desiredTapTypesLocked(map[guid.GUID][]event.Filter{
		p1: {{Type: ctxtype.TemperatureCelsius}},
		p2: {{Source: guid.New(guid.KindDevice)}},
	}, reg)
	if !wildcard {
		t.Fatal("untyped interest did not force the wildcard tap")
	}

	// Declared equivalence between two kept types would double-forward any
	// event of either: the guard falls back to one residual tap.
	_, wildcard = desiredTapTypesLocked(map[guid.GUID][]event.Filter{
		p1: {{Type: ctxtype.LocationSightingDoor}},
		p2: {{Type: ctxtype.LocationSightingWLAN}}, // door ≡ wlan in the core registry
	}, reg)
	if !wildcard {
		t.Fatal("equivalent tap types did not force the wildcard fallback")
	}

	// No interests, no taps.
	types, wildcard = desiredTapTypesLocked(nil, reg)
	if len(types) != 0 || wildcard {
		t.Fatalf("empty table derived taps: %v %v", types, wildcard)
	}
}

func (f *Fabric) peerDropBaseline(peer guid.GUID) (uint64, bool) {
	l := f.lookupLink(peer)
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropBase, l.dropKnown
}

// TestFanOutAcksFlowBack: a receiving fabric acknowledges fan-out batches
// with its flow credit, and the sender records the per-peer baseline.
func TestFanOutAcksFlowBack(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	if err := fn.ranges[0].PublishAll(makeEvents(8, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= 8 })
	waitFor(t, func() bool {
		_, ok := fA.peerDropBaseline(fB.NodeID())
		return ok
	})
	if fA.fan.Throttled() {
		t.Fatal("healthy acks throttled the fan-out coalescer")
	}
}

// TestReceiverOverloadThrottlesFanOut: collapsing credit reports from a
// peer reduce the sender's flush rate — size flushes stop, the stretched
// timer paces shipments — and the state is observable through the Range's
// remote.backpressure.* gauges and dispatch.stats map.
func TestReceiverOverloadThrottlesFanOut(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	// Induce overload: B's receive-side drop counter climbs across acks.
	ack := func(dropped uint64) {
		payload, err := json.Marshal(eventBatchAckMsg{Dropped: dropped, QueueFree: -1})
		if err != nil {
			t.Fatal(err)
		}
		fA.handleBatchAck(overlay.Delivery{Origin: fB.NodeID(), AppKind: appEventBatchAck, Payload: payload})
	}
	ack(0)   // baseline
	ack(50)  // 50 new drops: credit collapsed
	ack(120) // still collapsing
	if !fA.fan.Throttled() {
		t.Fatal("collapsing credit did not throttle the fan-out coalescer")
	}

	// A full batch that would normally size-flush instantly now waits for
	// the penalty-stretched timer: the flush rate fell.
	const n = 8
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.fan.PendingLen() == n })
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("throttled fan-out still size-flushed %d batches", got)
	}
	fn.clk.Advance(2 * time.Millisecond) // the unstretched BatchMaxDelay
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("throttled fan-out flushed at the unstretched delay")
	}
	fn.clk.Advance(32 * time.Millisecond) // penalty=4 → 8ms; generous margin
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("throttled deliveries not exactly-once: %d", recv.total())
	}

	// Backpressure is observable: gauges and the dispatch.stats map.
	stats := fn.ranges[0].StatsMap()
	if stats["remote.backpressure.throttled"] != 1 {
		t.Fatalf("remote.backpressure.throttled = %v, want 1", stats["remote.backpressure.throttled"])
	}
	if stats["remote.backpressure.drops_reported"] != 120 {
		t.Fatalf("remote.backpressure.drops_reported = %v, want 120", stats["remote.backpressure.drops_reported"])
	}
	if stats["remote.backpressure.throttle_events"] < 2 {
		t.Fatalf("remote.backpressure.throttle_events = %v, want ≥ 2", stats["remote.backpressure.throttle_events"])
	}

	// Healthy credit recovers the flush rate (the penalty decays
	// multiplicatively, so a few clean reports are needed).
	for i := 0; i < 10 && fA.fan.Throttled(); i++ {
		ack(120)
	}
	if fA.fan.Throttled() {
		t.Fatal("healthy acks did not recover the fan-out coalescer")
	}
	if got := fn.ranges[0].StatsMap()["remote.backpressure.throttled"]; got != 0 {
		t.Fatalf("remote.backpressure.throttled = %v after recovery, want 0", got)
	}
}

// TestUnbatchedFanOutThrottlesOnCreditCollapse: with BatchMaxEvents unset
// the fan-out still ships through its coalescer, so collapsing credit from
// a peer throttles it: one-event batches stop leaving at once and wait for
// the penalty-stretched BatchMaxDelay timer, which ships the backlog in one
// paced flush.
func TestUnbatchedFanOutThrottlesOnCreditCollapse(t *testing.T) {
	fn := newFanNet(t, 2, 0)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	for _, dropped := range []uint64{0, 50} { // a baseline, then 50 fresh drops
		payload, err := json.Marshal(eventBatchAckMsg{Dropped: dropped, QueueFree: -1})
		if err != nil {
			t.Fatal(err)
		}
		fA.handleBatchAck(overlay.Delivery{Origin: fB.NodeID(), AppKind: appEventBatchAck, Payload: payload})
	}
	stats := fn.ranges[0].StatsMap
	if got := stats()["remote.backpressure.throttle_events"]; got == 0 {
		t.Fatal("collapsing credit did not throttle the unbatched fan-out")
	}

	const n = 3
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.fan.PendingLen() == n || fA.BatchesForwarded.Value() > 0 })
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("throttled fan-out still shipped %d one-event batches at once", got)
	}
	fn.clk.Advance(2 * time.Millisecond) // the unstretched BatchMaxDelay
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("throttled fan-out flushed at the unstretched delay")
	}
	fn.clk.Advance(2 * time.Millisecond) // penalty 2 reached
	if got := fA.BatchesForwarded.Value(); got != n {
		t.Fatalf("stretched timer flush forwarded %d batches, want %d one-event batches", got, n)
	}
	if got := stats()["remote.flushes"]; got != 1 {
		t.Fatalf("remote.flushes = %v, want 1: the backlog must leave in one timer-paced flush", got)
	}
	waitFor(t, func() bool { return recv.exactlyOnce(n) })
}
