package scinet

// Tests for overlay-level transitive flow credit (PR 5): a relay folds the
// congestion it observes downstream into the acks it sends upstream, so a
// multi-hop chain throttles at the origin; per-peer baselines re-baseline
// when a peer rejoins with a reused GUID and a reset counter.

import (
	"encoding/json"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/overlay"
)

// injectAck delivers a crafted fan-out credit report to f as if peer had
// sent it.
func injectAck(t *testing.T, f *Fabric, peer guid.GUID, dropped uint64) {
	t.Helper()
	injectAckBy(t, f, peer, dropped, nil)
}

// injectAckBy additionally carries per-origin downstream accounts.
func injectAckBy(t *testing.T, f *Fabric, peer guid.GUID, dropped uint64, by map[guid.GUID]uint64) {
	t.Helper()
	payload, err := json.Marshal(eventBatchAckMsg{Dropped: dropped, DownstreamBy: by, QueueFree: -1})
	if err != nil {
		t.Fatal(err)
	}
	f.handleBatchAck(overlay.Delivery{Origin: peer, AppKind: appEventBatchAck, Payload: payload})
}

// forgetUntilSettled prunes an interest entry until in-flight gossip stops
// re-adding it.
func forgetUntilSettled(f *Fabric, owner guid.GUID) {
	for settled := 0; settled < 25; {
		if f.ForgetInterest(owner) {
			settled = 0
		} else {
			settled++
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChainOriginThrottlesOnRelayDownstream: A forwards to B (A never
// learned C's interest); B relays to C. When C's credit collapses, B
// throttles toward C AND folds the observed drops into its own acks to A —
// so A, two hops from the congestion, throttles at the source.
func TestChainOriginThrottlesOnRelayDownstream(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	bRecv, cRecv := newCounter(), newCounter()
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, bRecv.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := fC.SubscribeRemote(guid.New(guid.KindApplication), flt, cRecv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return fA.knowsInterest(fB.NodeID()) && fB.knowsInterest(fC.NodeID()) && fA.hasTap()
	})
	// Partial knowledge: A relies on B's relay to reach C.
	forgetUntilSettled(fA, fC.NodeID())

	// Healthy round: establishes A's baseline for B (first ack is baseline
	// only) and proves the relay path.
	const n = 8
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return bRecv.total() >= n && cRecv.total() >= n })
	waitFor(t, func() bool {
		_, ok := fA.peerDropBaseline(fB.NodeID())
		return ok
	})
	if fA.fan.Penalty() > 1 || fB.fan.Penalty() > 1 {
		t.Fatal("healthy chain throttled")
	}

	// C reports mounting congestion from further downstream (a phantom
	// fourth fabric's account — a *direct* figure faked for C would be
	// truthfully reset by C's own live acks, since an account's owner is
	// authoritative for it). B must throttle its own fan-out AND remember
	// the congestion as downstream state.
	phantom := guid.New(guid.KindServer)
	injectAck(t, fB, fC.NodeID(), 0) // baseline at B
	injectAckBy(t, fB, fC.NodeID(), 0, map[guid.GUID]uint64{phantom: 50})
	injectAckBy(t, fB, fC.NodeID(), 0, map[guid.GUID]uint64{phantom: 120})
	if fB.fan.Penalty() <= 1 {
		t.Fatal("relay did not throttle on its receiver's collapse")
	}
	if got := fB.DownstreamDrops(); got != 120 {
		t.Fatalf("relay downstream counter = %d, want 120", got)
	}

	// The next batch A ships makes B ack with the phantom's account: A —
	// which never heard from C, let alone the phantom — must throttle at
	// the source. The drop-bearing report is rate-limited to one per ack
	// window, so the manual clock runs the window out.
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fA.fan.Penalty() <= 1 {
		if time.Now().After(deadline) {
			t.Fatal("origin never throttled on the relay-reported collapse")
		}
		fn.clk.Advance(2 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	if got := fA.DownstreamDrops(); got == 0 {
		t.Fatal("origin never folded the relay-reported congestion into its own counter")
	}
	// Observable in the origin Range's gauges.
	if got := fn.ranges[0].StatsMap()["remote.backpressure.throttled"]; got != 1 {
		t.Fatalf("origin remote.backpressure.throttled = %v, want 1", got)
	}
}

// TestDownstreamAccountsConvergeOnCycles: downstream congestion travels as
// per-origin accounts merged by max. A figure that laps a cycle — or
// returns to the fabric that first reported it — converges instead of
// being re-counted as fresh congestion on every round, and reports back to
// an account's owner exclude that account entirely. Without this, any
// bidirectional link or 3+-fabric interest ring would amplify one finite
// drop episode into a permanent mutual throttle.
func TestDownstreamAccountsConvergeOnCycles(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)
	d := guid.New(guid.KindServer) // a 4th fabric two hops away

	// A learns of B's own congestion (direct account) and of D's (relayed
	// through B).
	injectAckBy(t, fA, fB.NodeID(), 50, map[guid.GUID]uint64{d: 30})
	if got := fA.DownstreamDrops(); got != 80 {
		t.Fatalf("downstream total = %d, want 80 (B's 50 + D's 30)", got)
	}
	// Reports back to B exclude B's own account; reports to C carry both.
	if got := fA.downstreamFor(fB.NodeID()); got != 30 {
		t.Fatalf("downstreamFor(B) = %d, want 30 (B's own 50 excluded)", got)
	}
	if got := fA.downstreamFor(fC.NodeID()); got != 80 {
		t.Fatalf("downstreamFor(C) = %d, want 80", got)
	}

	// The same figures arriving again — another relay path, or a full lap
	// of a cycle — merge idempotently: no growth, no fresh delta upstream.
	injectAckBy(t, fA, fC.NodeID(), 0, map[guid.GUID]uint64{fB.NodeID(): 50, d: 30})
	if got := fA.DownstreamDrops(); got != 80 {
		t.Fatalf("relayed copy re-counted: downstream total = %d, want 80", got)
	}
	// A's own account echoed back must be skipped outright.
	injectAckBy(t, fA, fC.NodeID(), 0, map[guid.GUID]uint64{fA.NodeID(): 999})
	if got := fA.DownstreamDrops(); got != 80 {
		t.Fatalf("own account echoed back was folded: downstream total = %d, want 80", got)
	}
}

// TestPeerRejoinRebaselinesFanCredit: a peer that restarts under a reused
// GUID reports a regressed (reset) counter; the sender re-baselines rather
// than freezing drop detection until the fresh counter re-passes the stale
// high-water mark — and the regression itself is not read as congestion.
func TestPeerRejoinRebaselinesFanCredit(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)
	peer := fB.NodeID()

	injectAck(t, fA, peer, 1000) // baseline
	injectAck(t, fA, peer, 1050) // 50 fresh drops: throttled
	if fA.fan.Penalty() <= 1 {
		t.Fatal("drop delta did not throttle")
	}
	for i := 0; i < 10 && fA.fan.Penalty() > 1; i++ {
		injectAck(t, fA, peer, 1050)
	}
	if fA.fan.Penalty() > 1 {
		t.Fatal("healthy acks did not recover")
	}

	// Restart: the peer's counter resets. Regression is not congestion.
	injectAck(t, fA, peer, 0)
	if fA.fan.Penalty() > 1 {
		t.Fatal("counter regression read as congestion")
	}
	// The stale 1050 baseline must be gone: 5 post-restart drops throttle
	// immediately instead of waiting for the counter to re-pass 1050.
	injectAck(t, fA, peer, 5)
	if fA.fan.Penalty() <= 1 {
		t.Fatal("post-restart drops frozen behind the stale baseline")
	}
	// The peer's own account follows its authoritative (reset) counter, so
	// post-restart congestion propagates upstream instead of hiding behind
	// the stale pre-restart maximum.
	if got := fA.DownstreamDrops(); got != 5 {
		t.Fatalf("downstream account = %d, want the post-restart 5", got)
	}
}
