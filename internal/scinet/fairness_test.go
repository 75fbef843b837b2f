package scinet

// Tests for PR 6's overlay fairness work: a credit-throttled relay queues
// and sheds instead of amplifying at line rate, routed-query credit
// reports coalesce to one frame per peer per window, and the interest
// scan in fanOut/relay runs against the lock-free snapshot rather than
// under f.mu.

import (
	"encoding/json"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/overlay"
	"sci/internal/wire"
)

// injectRelayedBatch delivers a crafted fan-out batch to f as if origin had
// shipped it with the given hop set, returning the batch id.
func injectRelayedBatch(t *testing.T, f *Fabric, origin guid.GUID, via []guid.GUID, events []event.Event) guid.GUID {
	t.Helper()
	id := guid.New(guid.KindEvent)
	f.handleEventBatch(overlay.Delivery{Origin: origin, AppKind: appEventBatch,
		Batch: &wire.NativeBatch{Events: events, Origin: origin, ID: id, Via: via}})
	return id
}

// TestThrottledRelayShedsNotAmplifies: while B's fan-out credit is
// collapsed, batches B would relay toward C queue into a bounded
// drop-oldest backlog — counted as sheds beyond the bound — and drain in
// one capped chunk per penalty-stretched interval instead of hitting C at
// line rate.
func TestThrottledRelayShedsNotAmplifies(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)

	// B knows only C's interest; A's hop set won't cover C, so B relays.
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	fB.setInterests(map[guid.GUID][]event.Filter{fC.NodeID(): {flt}})

	events := makeEvents(1, fn.clk)
	for i := range events {
		events[i].Range = fn.ranges[0].ID() // stamped remote, so B ingests/relays
	}
	via := []guid.GUID{fA.NodeID(), fB.NodeID()}

	// Unthrottled: the historical line-rate path, one Route per relay.
	injectRelayedBatch(t, fB, fA.NodeID(), via, events)
	if got := fB.BatchesRelayed.Value(); got != 1 {
		t.Fatalf("unthrottled relay forwarded %d batches, want 1 at line rate", got)
	}

	// Collapse B's forwarding credit: 50 fresh drops double the penalty.
	injectAck(t, fB, fC.NodeID(), 0) // baseline
	injectAck(t, fB, fC.NodeID(), 50)
	if p := fB.FanoutPenalty(); p <= 1 {
		t.Fatalf("penalty = %v after fresh drops, want > 1", p)
	}

	// A relayed burst far over the backlog bound: nothing leaves at line
	// rate; the oldest beyond maxRelayBacklog are shed and attributed.
	const burst = maxRelayBacklog + 10
	for i := 0; i < burst; i++ {
		injectRelayedBatch(t, fB, fA.NodeID(), via, events)
	}
	if got := fB.BatchesRelayed.Value(); got != 1 {
		t.Fatalf("throttled relay forwarded %d batches at line rate, want 0 new", got-1)
	}
	if got := fB.BatchesRelayShed.Value(); got != burst-maxRelayBacklog {
		t.Fatalf("sheds = %d, want %d (burst %d, backlog bound %d)",
			got, burst-maxRelayBacklog, burst, maxRelayBacklog)
	}

	// The drain timer ships the bounded survivors after the
	// penalty-stretched interval (maxDelay 2ms × penalty 2).
	fn.clk.Advance(10 * time.Millisecond)
	waitFor(t, func() bool { return fB.BatchesRelayed.Value() == 1+maxRelayBacklog })
	if got := fB.BatchesRelayShed.Value(); got != burst-maxRelayBacklog {
		t.Fatalf("drain shed more: %d, want %d", got, burst-maxRelayBacklog)
	}
}

// TestRoutedQueryAckFrameBudget: a storm of routed-query result batches
// from one peer answers with a single cumulative credit frame per ack
// window — not one frame per batch — and one received QueryAck frame
// credits every per-(peer, query) coalescer toward that peer.
func TestRoutedQueryAckFrameBudget(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	// B holds a waiting consumer for a routed query it submitted to A.
	qid := guid.New(guid.KindQuery)
	sink := entity.NewCAA("sink", func(event.Event) {}, fn.clk)
	lA := fB.lookupLink(fA.NodeID())
	lA.mu.Lock()
	lA.out[qid] = &outQuery{caa: sink}
	lA.mu.Unlock()

	base := fB.AcksSent.Value()
	const storm = 100
	events := makeEvents(1, fn.clk)
	for i := 0; i < storm; i++ {
		fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch,
			Batch: &wire.NativeBatch{Events: events, Origin: fA.NodeID(), Query: qid}})
	}
	// Clock frozen: only the leading report leaves; the other 99 batches
	// coalesce behind it (the figure is cumulative and hasn't moved).
	if got := fB.AcksSent.Value() - base; got != 1 {
		t.Fatalf("result storm answered with %d ack frames, want 1 per window", got)
	}
	// The deferred no-news report fires once the idle window passes.
	fn.clk.Advance(fB.maxDelay * (fanAckIdleFactor + 1))
	waitFor(t, func() bool { return fB.AcksSent.Value()-base == 2 })

	// Receiver side: one cumulative QueryAck frame from B throttles every
	// per-(B, query) coalescer at A.
	qid1, qid2 := guid.New(guid.KindQuery), guid.New(guid.KindQuery)
	lB := fA.lookupLink(fB.NodeID())
	lB.mu.Lock()
	lB.served[qid1] = &servedQuery{}
	lB.served[qid2] = &servedQuery{}
	lB.mu.Unlock()
	q1 := fA.queueFor(fB.NodeID(), qid1)
	q2 := fA.queueFor(fB.NodeID(), qid2)
	for _, dropped := range []uint64{0, 50} { // baseline, then 50 fresh drops
		payload, err := json.Marshal(eventBatchAckMsg{QueryAck: true, Dropped: dropped, QueueFree: -1})
		if err != nil {
			t.Fatal(err)
		}
		fA.handleBatchAck(overlay.Delivery{Origin: fB.NodeID(), AppKind: appEventBatchAck, Payload: payload})
	}
	if !q1.Throttled() || !q2.Throttled() {
		t.Fatalf("shared QueryAck credited q1=%v q2=%v, want both throttled",
			q1.Throttled(), q2.Throttled())
	}
}

// TestInterestScanRunsWithoutFabricLock: fanOut and relay match interests
// against the copy-on-write snapshot, so batch forwarding completes while
// another goroutine holds f.mu (the regression that motivated the
// snapshot: a wide interest table serialized every flush behind the
// fabric lock).
func TestInterestScanRunsWithoutFabricLock(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	fA.setInterests(map[guid.GUID][]event.Filter{fB.NodeID(): {flt}})

	events := makeEvents(2, fn.clk)
	fA.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fA.fanOut(events)
		// The relay scan too: B already in the hop set, so the scan is the
		// whole call.
		fA.relay(&wire.NativeBatch{
			Events: events,
			Origin: fB.NodeID(),
			Via:    []guid.GUID{fA.NodeID(), fB.NodeID()},
		}, events)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("interest scan blocked behind f.mu")
	}
	fA.mu.Unlock()

	if got := fA.BatchesForwarded.Value(); got == 0 {
		t.Fatal("fan-out under a held fabric lock forwarded nothing")
	}
}
