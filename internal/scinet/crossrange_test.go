package scinet

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/overlay"
	"sci/internal/query"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// fanNet is an n-range SCINET for cross-range fan-out tests.
type fanNet struct {
	clk     *clock.Manual
	net     *transport.Memory
	ranges  []*server.Range
	fabrics []*Fabric
}

func newFanNet(t testing.TB, n, batchMax int) *fanNet {
	t.Helper()
	clk := clock.NewManual(epoch)
	net := transport.NewMemory(transport.MemoryConfig{Clock: clk})
	fn := &fanNet{clk: clk, net: net}
	for i := 0; i < n; i++ {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("r%d", i),
			Clock:          clk,
			Coverage:       location.Path(fmt.Sprintf("campus/r%d", i)),
			BatchMaxEvents: batchMax,
			BatchMaxDelay:  2 * time.Millisecond,
		})
		f, err := NewFabric(rng, net, clk)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := f.Join(fn.fabrics[0].NodeID()); err != nil {
				t.Fatal(err)
			}
		}
		fn.ranges = append(fn.ranges, rng)
		fn.fabrics = append(fn.fabrics, f)
	}
	return fn
}

func (fn *fanNet) close() {
	for _, f := range fn.fabrics {
		_ = f.Close()
	}
	for _, r := range fn.ranges {
		r.Close()
	}
	_ = fn.net.Close()
}

// counter tallies deliveries per event id, thread-safe.
type counter struct {
	mu   sync.Mutex
	seen map[guid.GUID]int
}

func newCounter() *counter { return &counter{seen: make(map[guid.GUID]int)} }

func (c *counter) handle(e event.Event) {
	c.mu.Lock()
	c.seen[e.ID]++
	c.mu.Unlock()
}

func (c *counter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.seen {
		n += v
	}
	return n
}

// exactlyOnce reports whether every one of the n expected events arrived
// exactly once.
func (c *counter) exactlyOnce(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) != n {
		return false
	}
	for _, v := range c.seen {
		if v != 1 {
			return false
		}
	}
	return true
}

func makeEvents(n int, clk clock.Clock) []event.Event {
	src := guid.New(guid.KindDevice)
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.New(ctxtype.TemperatureCelsius, src, uint64(i+1), clk.Now(),
			map[string]any{"value": float64(i)})
	}
	return out
}

func waitCoverage(t *testing.T, fn *fanNet) {
	t.Helper()
	waitFor(t, func() bool {
		for _, f := range fn.fabrics {
			if len(f.Coverage()) != len(fn.fabrics) {
				return false
			}
		}
		return true
	})
}

func (f *Fabric) hasTap() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.taps) > 0
}

func (f *Fabric) knowsInterest(owner guid.GUID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.interests[owner]
	return ok
}

// setInterests pins a fabric's interest table to exactly the given
// entries, re-asserting until no in-flight gossip disturbs it for 25ms.
func (f *Fabric) setInterests(table map[guid.GUID][]event.Filter) {
	for settled := 0; settled < 25; {
		f.mu.Lock()
		same := len(f.interests) == len(table)
		if same {
			for owner := range table {
				if _, ok := f.interests[owner]; !ok {
					same = false
					break
				}
			}
		}
		if !same {
			fresh := make(map[guid.GUID][]event.Filter, len(table))
			for owner, flts := range table {
				fresh[owner] = flts
			}
			f.interests = fresh
			f.refreshInterestSnapLocked()
		}
		f.mu.Unlock()
		if same {
			settled++
		} else {
			settled = 0
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrossRangeFanOutExactlyOnce: full interest knowledge, three ranges.
// A publishes a burst; the single subscriber in C receives every event
// exactly once, and nothing echoes back into A.
func TestCrossRangeFanOutExactlyOnce(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fC.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return fA.knowsInterest(fC.NodeID()) && fB.knowsInterest(fC.NodeID()) && fA.hasTap()
	})

	const n = 16
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("C deliveries not exactly-once: %d events, %d deliveries", len(recv.seen), recv.total())
	}
	// B holds no interest of its own and must not relay a batch whose hop
	// set already covers C.
	if got := fB.BatchesRelayed.Value(); got != 0 {
		t.Fatalf("B relayed %d batches with full origin knowledge", got)
	}
	if got := fA.BatchesIngested.Value(); got != 0 {
		t.Fatalf("A ingested %d of its own batches", got)
	}
}

// TestCrossRangeRelayViaMiddle: A does not know C's interest; B does. The
// batch reaches C through B's relay, exactly once, and never returns to A.
func TestCrossRangeRelayViaMiddle(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	// B subscribes too (it is an aggregation point on the path).
	bRecv := newCounter()
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, bRecv.handle); err != nil {
		t.Fatal(err)
	}
	cRecv := newCounter()
	if _, err := fC.SubscribeRemote(guid.New(guid.KindApplication), flt, cRecv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return fA.knowsInterest(fB.NodeID()) && fA.knowsInterest(fC.NodeID()) &&
			fB.knowsInterest(fC.NodeID()) && fA.hasTap()
	})
	// Partial knowledge: A never learned of C's subscription. Re-gossiped
	// interest records may still be in flight, so delete until the entry
	// stays gone.
	for settled := 0; settled < 25; {
		fA.mu.Lock()
		_, present := fA.interests[fC.NodeID()]
		if present {
			delete(fA.interests, fC.NodeID())
			fA.refreshInterestSnapLocked()
		}
		fA.mu.Unlock()
		if present {
			settled = 0
		} else {
			settled++
		}
		time.Sleep(time.Millisecond)
	}

	const n = 8
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return cRecv.total() >= n && bRecv.total() >= n })
	// Give any stray duplicate a moment to land before asserting.
	time.Sleep(20 * time.Millisecond)
	if !cRecv.exactlyOnce(n) {
		t.Fatalf("C deliveries not exactly-once: %d events, %d deliveries", len(cRecv.seen), cRecv.total())
	}
	if !bRecv.exactlyOnce(n) {
		t.Fatalf("B deliveries not exactly-once: %d events, %d deliveries", len(bRecv.seen), bRecv.total())
	}
	if got := fB.BatchesRelayed.Value(); got == 0 {
		t.Fatal("B never relayed: C cannot have been reached via B")
	}
	if got := fA.BatchesIngested.Value(); got != 0 {
		t.Fatalf("A ingested %d batches of its own events", got)
	}
}

// TestCrossRangeCycleLoopSuppression: a directed interest ring A→B→C→A.
// A's publish travels B then C; C suppresses the hop back to A because A is
// the batch's origin and in its hop set.
func TestCrossRangeCycleLoopSuppression(t *testing.T) {
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA, fB, fC := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	aRecv, bRecv, cRecv := newCounter(), newCounter(), newCounter()
	for i, h := range []struct {
		f *Fabric
		c *counter
	}{{fA, aRecv}, {fB, bRecv}, {fC, cRecv}} {
		if _, err := h.f.SubscribeRemote(guid.New(guid.KindApplication), flt, h.c.handle); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		return fA.knowsInterest(fB.NodeID()) && fB.knowsInterest(fC.NodeID()) &&
			fC.knowsInterest(fA.NodeID()) && fA.hasTap() && fB.hasTap() && fC.hasTap()
	})
	// Ring topology: each fabric only knows its successor's interest.
	fA.setInterests(map[guid.GUID][]event.Filter{fB.NodeID(): {flt}})
	fB.setInterests(map[guid.GUID][]event.Filter{fC.NodeID(): {flt}})
	fC.setInterests(map[guid.GUID][]event.Filter{fA.NodeID(): {flt}})

	const n = 8
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return bRecv.total() >= n && cRecv.total() >= n })
	time.Sleep(20 * time.Millisecond)
	if !aRecv.exactlyOnce(n) || !bRecv.exactlyOnce(n) || !cRecv.exactlyOnce(n) {
		t.Fatalf("ring deliveries not exactly-once: A=%d B=%d C=%d",
			aRecv.total(), bRecv.total(), cRecv.total())
	}
	if got := fB.BatchesRelayed.Value(); got == 0 {
		t.Fatal("B never relayed around the ring")
	}
	if got := fC.BatchesRelayed.Value(); got != 0 {
		t.Fatalf("C relayed %d batches: the echo to A was not suppressed", got)
	}
	if got := fA.BatchesIngested.Value(); got != 0 {
		t.Fatalf("A ingested %d batches: its own events came back", got)
	}

	// Belt and braces: a batch that somehow arrives at its own origin is
	// dropped, not ingested.
	before := fA.EchoesDropped.Value()
	fA.handleEventBatch(overlay.Delivery{Origin: fC.NodeID(), AppKind: appEventBatch,
		Batch: &wire.NativeBatch{Events: makeEvents(1, fn.clk), Origin: fA.NodeID(), Via: []guid.GUID{fA.NodeID()}}})
	if fA.EchoesDropped.Value() != before+1 {
		t.Fatal("echo batch not counted as dropped")
	}
	if got := fA.BatchesIngested.Value(); got != 0 {
		t.Fatal("echo batch was ingested")
	}
}

// TestCrossRangeBatchBudget: N coalesced events cost exactly
// ⌈N/BatchMaxEvents⌉ overlay messages per interested peer.
func TestCrossRangeBatchBudget(t *testing.T) {
	const maxBatch, n = 8, 64
	fn := newFanNet(t, 2, maxBatch)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("B deliveries not exactly-once: %d events, %d deliveries", len(recv.seen), recv.total())
	}
	if got, want := fA.BatchesForwarded.Value(), uint64(n/maxBatch); got != want {
		t.Fatalf("batches forwarded = %d, want %d (⌈%d/%d⌉ per peer)", got, want, n, maxBatch)
	}
	if got := fA.EventsForwarded.Value(); got != n {
		t.Fatalf("events forwarded = %d, want %d", got, n)
	}
	if got, want := fB.BatchesIngested.Value(), uint64(n/maxBatch); got != want {
		t.Fatalf("batches ingested = %d, want %d", got, want)
	}
}

// TestFleetDispatchStatsRollup: after a cross-range fan-out to two
// subscriber Ranges, the fleet rollup covers all three Ranges, its totals
// are the sums of the per-Range figures, its index-hit ratio is the ratio
// of those sums, and nothing was dropped.
func TestFleetDispatchStatsRollup(t *testing.T) {
	const n = 64
	fn := newFanNet(t, 3, 8)
	defer fn.close()
	fA := fn.fabrics[0]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	var recv []*counter
	for _, f := range fn.fabrics[1:] {
		c := newCounter()
		if _, err := f.SubscribeRemote(guid.New(guid.KindApplication), flt, c.handle); err != nil {
			t.Fatal(err)
		}
		recv = append(recv, c)
	}
	// A local wildcard subscriber puts one Range's residual tier to work,
	// so the fleet's index-hit ratio lies strictly between 0 and 1.
	if _, err := fn.ranges[2].Mediator().Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.Wildcard}, func(event.Event) {}, mediator.SubOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return fA.knowsInterest(fn.fabrics[1].NodeID()) && fA.knowsInterest(fn.fabrics[2].NodeID()) && fA.hasTap()
	})
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv[0].exactlyOnce(n) && recv[1].exactlyOnce(n) })

	// The probe deadline runs on the manual clock: if a peer never answers,
	// advance it so the call returns before the test fails.
	done := make(chan *FleetStats, 1)
	go func() {
		fs, err := fA.FleetDispatchStats(time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- fs
	}()
	var fs *FleetStats
	select {
	case fs = <-done:
	case <-time.After(5 * time.Second):
		fn.clk.Advance(time.Second)
		<-done
		t.Fatal("a fabric never answered the stats probe")
	}
	if fs == nil {
		t.FailNow()
	}
	if fs.Ranges != 3 || len(fs.PerRange) != 3 {
		t.Fatalf("rollup covers %d Ranges (%d entries), want 3", fs.Ranges, len(fs.PerRange))
	}
	var published, hits, scanned float64
	for _, pr := range fs.PerRange {
		// The publisher published the burst; each subscriber Range
		// re-published the copy it ingested.
		if pr.Stats["eventbus.published"] < n {
			t.Errorf("%s published %v events, want at least %d", pr.Name, pr.Stats["eventbus.published"], n)
		}
		published += pr.Stats["eventbus.published"]
		hits += pr.Stats["eventbus.index_hits"]
		scanned += pr.Stats["eventbus.residual_scanned"]
	}
	if fs.Totals["eventbus.published"] != published {
		t.Fatalf("Totals[eventbus.published] = %v, want the per-Range sum %v", fs.Totals["eventbus.published"], published)
	}
	if fs.Totals["eventbus.dropped"] != 0 {
		t.Fatalf("fleet dropped %v events", fs.Totals["eventbus.dropped"])
	}
	// The fleet hit ratio is a ratio of sums, not a sum of ratios.
	if hits == 0 || scanned == 0 {
		t.Fatalf("fleet reported %v index hits and %v residual scans, want both non-zero", hits, scanned)
	}
	ratio := fs.Totals["eventbus.index_hit_ratio"]
	if want := hits / (hits + scanned); math.Abs(ratio-want) > 1e-12 || ratio < 0 || ratio > 1 {
		t.Fatalf("Totals[eventbus.index_hit_ratio] = %v, want Σhits/(Σhits+Σscanned) = %v/(%v+%v) = %v in [0,1]",
			ratio, hits, hits, scanned, want)
	}
}

// TestCrossRangeDelayFlush: a partial batch is held for BatchMaxDelay and
// flushed by the timer, not dribbled per event.
func TestCrossRangeDelayFlush(t *testing.T) {
	const maxBatch = 8
	fn := newFanNet(t, 2, maxBatch)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	const n = 3 // below the size bound: only the delay timer can flush
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.fan.PendingLen() == n })
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("partial batch left early: %d messages", got)
	}
	fn.clk.Advance(5 * time.Millisecond)
	waitFor(t, func() bool { return recv.total() >= n })
	if got := fA.BatchesForwarded.Value(); got != 1 {
		t.Fatalf("delay flush sent %d messages, want 1", got)
	}
	if !recv.exactlyOnce(n) {
		t.Fatalf("B deliveries not exactly-once after delay flush")
	}
}

// TestForwardedQueryProxyLifecycle covers the serving-side bookkeeping:
// served-query records replace the old write-only remote map, a failed
// query releases its proxy only when it is the owner's last, and an origin
// fabric's departure tears everything down.
func TestForwardedQueryProxyLifecycle(t *testing.T) {
	tr := newTwoRanges(t)
	defer tr.close()
	waitFor(t, func() bool {
		_, ok := tr.fLobby.CoveringNode("campus/lt/l10")
		return ok
	})

	caa := entity.NewCAA("capa", nil, tr.clk)
	if err := tr.lobby.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPath("campus/lt/l10")
	if _, err := tr.fLobby.Submit(q, caa); err != nil {
		t.Fatal(err)
	}
	if got := tr.fL10.ServedQueries(); len(got) != 1 {
		t.Fatalf("served queries = %v, want 1", got)
	}
	if !tr.l10.Registrar().IsLive(caa.ID()) {
		t.Fatal("proxy CAA not registered in serving range")
	}

	// A failing query from the same owner must not tear down the live one's
	// proxy (reference counting), and must not leave a served record.
	bad := query.New(caa.ID(), query.What{Pattern: ctxtype.PrinterQueue}, query.ModeSubscribe)
	bad.Where.Explicit = location.AtPath("campus/lt/l10")
	if _, err := tr.fLobby.Submit(bad, caa); err == nil {
		t.Fatal("unsatisfiable forwarded query succeeded")
	}
	if got := tr.fL10.ServedQueries(); len(got) != 1 {
		t.Fatalf("served queries after failure = %v, want the 1 live query", got)
	}
	if !tr.l10.Registrar().IsLive(caa.ID()) {
		t.Fatal("shared proxy removed while a query from its owner is live")
	}

	// Origin departure: the serving side drops the query, its configuration
	// and the proxy registration.
	if err := tr.fLobby.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(tr.fL10.ServedQueries()) == 0 })
	waitFor(t, func() bool { return !tr.l10.Registrar().IsLive(caa.ID()) })
	waitFor(t, func() bool { return len(tr.l10.Runtime().Active()) == 0 })
}

// TestForwardedQueryErrorRemovesProxy: a query that fails outright leaves
// neither a served record nor a proxy registration behind.
func TestForwardedQueryErrorRemovesProxy(t *testing.T) {
	tr := newTwoRanges(t)
	defer tr.close()
	waitFor(t, func() bool {
		_, ok := tr.fLobby.CoveringNode("campus/lt/l10")
		return ok
	})
	caa := entity.NewCAA("capa", nil, tr.clk)
	if err := tr.lobby.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.PrinterQueue}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPath("campus/lt/l10")
	if _, err := tr.fLobby.Submit(q, caa); err == nil {
		t.Fatal("unsatisfiable forwarded query succeeded")
	}
	if got := tr.fL10.ServedQueries(); len(got) != 0 {
		t.Fatalf("served queries after failed query = %v, want none", got)
	}
	waitFor(t, func() bool { return !tr.l10.Registrar().IsLive(caa.ID()) })
}

// TestForwardedQueryClosedRangeReportsError: when the serving Range cannot
// register the proxy (closed), the origin receives the error instead of the
// old silently swallowed AddApplication failure.
func TestForwardedQueryClosedRangeReportsError(t *testing.T) {
	tr := newTwoRanges(t)
	defer tr.close()
	waitFor(t, func() bool {
		_, ok := tr.fLobby.CoveringNode("campus/lt/l10")
		return ok
	})
	caa := entity.NewCAA("capa", nil, tr.clk)
	if err := tr.lobby.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	tr.l10.Close()
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPath("campus/lt/l10")
	if _, err := tr.fLobby.Submit(q, caa); err == nil {
		t.Fatal("forwarded query against a closed range succeeded")
	}
	if got := tr.fL10.ServedQueries(); len(got) != 0 {
		t.Fatalf("served queries registered against a closed range: %v", got)
	}
}

// TestDuplicateBatchSuppressed: a relayed copy of an already-ingested
// batch id (two relays covering the same hop-set gap) is dropped.
func TestDuplicateBatchSuppressed(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}

	// Craft a foreign-stamped batch and deliver it twice, as two relays
	// racing to cover B would.
	events := makeEvents(4, fn.clk)
	foreign := guid.New(guid.KindRange)
	for i := range events {
		events[i].Range = foreign
	}
	d := overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch, Batch: &wire.NativeBatch{
		Events: events,
		Origin: fA.NodeID(),
		ID:     guid.New(guid.KindEvent),
		Via:    []guid.GUID{fA.NodeID(), fB.NodeID()},
	}}
	fB.handleEventBatch(d)
	fB.handleEventBatch(d)
	waitFor(t, func() bool { return recv.total() >= 4 })
	time.Sleep(20 * time.Millisecond)
	if !recv.exactlyOnce(4) {
		t.Fatalf("duplicate batch ingested: %d deliveries for 4 events", recv.total())
	}
	if got := fB.DuplicatesDropped.Value(); got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}
	if got := fB.BatchesIngested.Value(); got != 1 {
		t.Fatalf("BatchesIngested = %d, want 1", got)
	}
}

// TestNativeBatchIngestPerEventRules feeds both arms of handleEventBatch one
// batch mixing a good event with every kind the ingest must refuse: on the
// fan-out arm an invalid event is skipped, a local-Range echo and an
// unstamped event are dropped and counted as echoes; on the routed-query arm
// an invalid event is skipped. Neighbours of a refused event still arrive,
// and a scinet.event_batch that carries no batch at all is dropped whole.
// Both arms receive the same events under their own headers.
func TestNativeBatchIngestPerEventRules(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(5, fn.clk)
	foreign := guid.New(guid.KindRange)
	events[0].Range = foreign
	events[1].Range = foreign
	events[1].ID = guid.Nil       // invalid
	events[2].Range = fB.rng.ID() // local-Range echo
	events[3].Range = guid.Nil    // unstamped: would be restamped local and re-forwarded
	events[4].Range = foreign
	fan := &wire.NativeBatch{Events: events, Origin: fA.NodeID(), ID: guid.New(guid.KindEvent),
		Via: []guid.GUID{fA.NodeID(), fB.NodeID()}}

	echoes := fB.EchoesDropped.Value()
	fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch, Batch: fan})
	waitFor(t, func() bool { return recv.total() >= 2 })
	time.Sleep(20 * time.Millisecond)
	if !recv.exactlyOnce(2) {
		t.Fatalf("fan-out arm delivered %d events, want exactly the 2 good ones", recv.total())
	}
	if got := fB.EchoesDropped.Value() - echoes; got != 2 {
		t.Fatalf("EchoesDropped moved by %d, want 2 (echo + unstamped)", got)
	}
	if got := fB.EventsIngested.Value(); got != 2 {
		t.Fatalf("EventsIngested = %d, want 2", got)
	}
	if events[3].Range != guid.Nil || events[1].ID != guid.Nil {
		t.Fatal("ingest mutated the shared batch")
	}

	// Routed-query arm: no Range rules (results are consumed, not re-published).
	qid := guid.New(guid.KindQuery)
	var consumed []uint64
	var mu sync.Mutex
	sink := entity.NewCAA("sink", func(e event.Event) {
		mu.Lock()
		consumed = append(consumed, e.Seq)
		mu.Unlock()
	}, fn.clk)
	fB.mu.Lock()
	fB.consumers[qid] = &outQuery{caa: sink, target: fA.NodeID()}
	fB.mu.Unlock()
	routed := &wire.NativeBatch{Events: events, Origin: fA.NodeID(), Query: qid}
	fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch, Batch: routed})
	mu.Lock()
	got := append([]uint64(nil), consumed...)
	mu.Unlock()
	if len(got) != 4 || got[0] != 1 || got[1] != 3 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("routed-query arm consumed seqs %v, want [1 3 4 5] (the invalid event skipped)", got)
	}

	// No batch, no ingest: a body is not an event batch.
	acks := fB.AcksSent.Value()
	fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch, Payload: []byte(`{}`)})
	fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch})
	mu.Lock()
	n := len(consumed)
	mu.Unlock()
	if n != 4 || fB.EventsIngested.Value() != 2 || fB.AcksSent.Value() != acks {
		t.Fatal("a batch-less scinet.event_batch was processed")
	}
}

// TestCloseFlushesPendingFanOut: a partial fan-out batch held for the
// delay timer still reaches interested peers when the fabric closes.
func TestCloseFlushesPendingFanOut(t *testing.T) {
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

	const n = 3 // below the size bound: held for the (manual, frozen) timer
	if err := fn.ranges[0].PublishAll(makeEvents(n, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.fan.PendingLen() == n })
	if err := fA.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("close flush deliveries not exactly-once: %d", recv.total())
	}
}

// TestRemoveInterestStopsForwarding: withdrawing the last interest clears
// the peer's table entry and tears down its forwarding tap.
func TestRemoveInterestStopsForwarding(t *testing.T) {
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

	fB.RemoveInterest(flt)
	waitFor(t, func() bool { return !fA.knowsInterest(fB.NodeID()) && !fA.hasTap() })

	if err := fn.ranges[0].PublishAll(makeEvents(8, fn.clk)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := recv.total(); got != 0 {
		t.Fatalf("withdrawn interest still delivered %d events", got)
	}
	if got := fA.BatchesForwarded.Value(); got != 0 {
		t.Fatalf("forwarded %d batches after withdrawal", got)
	}
}

// TestUnsubscribeRemoteSymmetricTeardown: cancelling through the fabric
// withdraws the interest, stops delivery, and lets the peer drop its tap.
func TestUnsubscribeRemoteSymmetricTeardown(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	rec, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	if err := fB.UnsubscribeRemote(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !fA.knowsInterest(fB.NodeID()) && !fA.hasTap() })
	if err := fn.ranges[0].PublishAll(makeEvents(8, fn.clk)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := recv.total(); got != 0 {
		t.Fatalf("cancelled remote subscription still delivered %d events", got)
	}
}

// TestIngestFiltersCoBatchedEvents: a batch carrying events outside the
// receiver's interests injects only the matching ones into local dispatch.
func TestIngestFiltersCoBatchedEvents(t *testing.T) {
	fn := newFanNet(t, 2, 8)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)

	// B asks only for temperature, but also has a local wildcard-ish
	// subscriber for door sightings that must never see Range-A events.
	tempRecv, doorRecv := newCounter(), newCounter()
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.TemperatureCelsius}, tempRecv.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := fn.ranges[1].Mediator().Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.LocationSightingDoor}, doorRecv.handle,
		mediator.SubOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	// Publish a mixed burst in A: temperatures plus door sightings that
	// will co-batch through the same fan-out chunks.
	src := guid.New(guid.KindDevice)
	mixed := makeEvents(8, fn.clk)
	for i := 0; i < 8; i++ {
		mixed = append(mixed, event.New(ctxtype.LocationSightingDoor, src,
			uint64(100+i), fn.clk.Now(), map[string]any{"place": "x"}))
	}
	if err := fn.ranges[0].PublishAll(mixed); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tempRecv.total() >= 8 })
	time.Sleep(20 * time.Millisecond)
	if !tempRecv.exactlyOnce(8) {
		t.Fatalf("temperature deliveries not exactly-once: %d", tempRecv.total())
	}
	if got := doorRecv.total(); got != 0 {
		t.Fatalf("co-batched non-matching events leaked into local dispatch: %d", got)
	}
}

// TestCancelWithdrawsServedQuery: a scinet.cancel from the query's origin
// (the timeout/late-reply path) releases the serving side's record,
// configuration and proxy; a cancel from anyone else is ignored.
func TestCancelWithdrawsServedQuery(t *testing.T) {
	tr := newTwoRanges(t)
	defer tr.close()
	waitFor(t, func() bool {
		_, ok := tr.fLobby.CoveringNode("campus/lt/l10")
		return ok
	})
	caa := entity.NewCAA("capa", nil, tr.clk)
	if err := tr.lobby.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPath("campus/lt/l10")
	if _, err := tr.fLobby.Submit(q, caa); err != nil {
		t.Fatal(err)
	}
	if len(tr.fL10.ServedQueries()) != 1 {
		t.Fatal("query not served")
	}

	// A forged cancel from a different fabric must not withdraw it.
	payload, err := json.Marshal(cancelMsg{QueryID: q.ID, Origin: guid.New(guid.KindServer)})
	if err != nil {
		t.Fatal(err)
	}
	tr.fL10.deliver(overlay.Delivery{AppKind: appCancel, Payload: payload})
	if len(tr.fL10.ServedQueries()) != 1 {
		t.Fatal("forged cancel withdrew the query")
	}

	// The origin's own cancel (what Submit sends on timeout) tears down.
	tr.fLobby.sendCancel(tr.fL10.NodeID(), q.ID)
	waitFor(t, func() bool { return len(tr.fL10.ServedQueries()) == 0 })
	waitFor(t, func() bool { return len(tr.l10.Runtime().Active()) == 0 })
	waitFor(t, func() bool { return !tr.l10.Registrar().IsLive(caa.ID()) })
}

// TestDeadPeerSendIsNotAnEcho pins how a lost delivery surfaces. B's
// overlay endpoint goes away without a scinet.leave, so the memory
// transport refuses A's batch with ErrUnknownDestination (Partition would
// lose it silently instead). The refused send must tear B down at A —
// peerGone drops B's interest entry and withdraws A's tap — and must be
// booked neither as a forwarded batch nor as an echo.
func TestDeadPeerSendIsNotAnEcho(t *testing.T) {
	const maxBatch = 8
	fn := newFanNet(t, 2, maxBatch)
	defer fn.close()
	fA, fB := fn.fabrics[0], fn.fabrics[1]
	waitCoverage(t, fn)
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fA.knowsInterest(fB.NodeID()) && fA.hasTap() })

	if err := fB.node.Close(); err != nil {
		t.Fatal(err)
	}
	fwd, echoes := fA.BatchesForwarded.Value(), fA.EchoesDropped.Value()
	if err := fn.ranges[0].PublishAll(makeEvents(maxBatch, fn.clk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !fA.knowsInterest(fB.NodeID()) && !fA.hasTap() })
	// peerGone ran inside the fan-out flush; a second flush waits for that
	// one to return, so every counter it would move has moved.
	fA.fan.Flush()
	if got := fA.BatchesForwarded.Value() - fwd; got != 0 {
		t.Errorf("BatchesForwarded moved by %d for a batch the transport refused", got)
	}
	if got := fA.EchoesDropped.Value() - echoes; got != 0 {
		t.Errorf("EchoesDropped moved by %d: a lost delivery was booked as an echo", got)
	}
}

// TestRelayLeavesReceivedBatchUntouched: on transport.Memory a received
// batch is the sender's pointer, possibly shared with other receivers, and
// ingest hands its events to the bus without copying them. B ingests a
// batch from A, dispatches it to two local subscribers and relays it to C
// and D, which A did not know; the relayed copies carry the extended hop
// set, the received batch's header is exactly what A sent, and every event
// of it — payload values included — still equals a snapshot taken before
// the ingest.
func TestRelayLeavesReceivedBatchUntouched(t *testing.T) {
	fn := newFanNet(t, 4, 8)
	defer fn.close()
	fA, fB, fC, fD := fn.fabrics[0], fn.fabrics[1], fn.fabrics[2], fn.fabrics[3]
	waitCoverage(t, fn)

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	recv := map[*Fabric]*counter{fB: newCounter(), fC: newCounter(), fD: newCounter()}
	for f, c := range recv {
		if _, err := f.SubscribeRemote(guid.New(guid.KindApplication), flt, c.handle); err != nil {
			t.Fatal(err)
		}
	}
	second := newCounter() // B's second local subscriber
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication), flt, second.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fB.knowsInterest(fC.NodeID()) && fB.knowsInterest(fD.NodeID()) })
	fB.setInterests(map[guid.GUID][]event.Filter{fC.NodeID(): {flt}, fD.NodeID(): {flt}})

	events := makeEvents(4, fn.clk)
	foreign := guid.New(guid.KindRange)
	for i := range events {
		events[i].Range = foreign
		events[i].Payload["label"] = fmt.Sprintf("reading-%d", i)
	}
	snapshot := make([]event.Event, len(events))
	for i, e := range events {
		e.Payload = maps.Clone(e.Payload)
		snapshot[i] = e
	}
	id := guid.New(guid.KindEvent)
	via := []guid.GUID{fA.NodeID(), fB.NodeID()}
	in := &wire.NativeBatch{Events: events, Origin: fA.NodeID(), ID: id, Via: via}
	fB.handleEventBatch(overlay.Delivery{Origin: fA.NodeID(), AppKind: appEventBatch, Batch: in})

	waitFor(t, func() bool {
		return recv[fB].total() >= 4 && second.total() >= 4 && recv[fC].total() >= 4 && recv[fD].total() >= 4
	})
	for f, c := range recv {
		if !c.exactlyOnce(4) {
			t.Fatalf("%s: %d deliveries for 4 events", f.NodeID().Short(), c.total())
		}
	}
	if !second.exactlyOnce(4) {
		t.Fatalf("B's second subscriber: %d deliveries for 4 events", second.total())
	}
	if got := fB.BatchesRelayed.Value(); got != 2 {
		t.Fatalf("BatchesRelayed = %d, want 2 (C and D)", got)
	}
	if len(in.Events) != len(snapshot) || &in.Events[0] != &events[0] {
		t.Fatalf("the received batch's event slice was replaced")
	}
	for i := range snapshot {
		if !reflect.DeepEqual(in.Events[i], snapshot[i]) {
			t.Fatalf("event %d of the received batch changed:\n got %+v\nwant %+v", i, in.Events[i], snapshot[i])
		}
	}
	if in.Origin != fA.NodeID() || in.ID != id || len(in.Via) != 2 ||
		&in.Via[0] != &via[0] || via[0] != fA.NodeID() || via[1] != fB.NodeID() {
		t.Fatalf("relay edited the received batch: origin %s id %s via %v",
			in.Origin.Short(), in.ID.Short(), in.Via)
	}
}

// TestIngestFiltersCopyFromFirstDrop: a batch with events to drop gets a
// slice of its own — invalid events skipped, local and unstamped ones
// counted as echoes — and the received batch is left as it was.
func TestIngestFiltersCopyFromFirstDrop(t *testing.T) {
	b, local := ingestBatch()
	b.Events = b.Events[:6]
	b.Events[1].ID = guid.Nil       // invalid
	b.Events[2].Range = local       // echo of local production
	b.Events[4].Range = guid.Nil    // unstamped
	b.Events[5].Type = "NOT.A.TYPE" // invalid
	before := append([]event.Event(nil), b.Events...)

	got, echoes := nativeEvents(b, local)
	if echoes != 2 {
		t.Fatalf("echoes = %d, want 2", echoes)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 4 {
		t.Fatalf("kept %v, want seqs 1 and 4", got)
	}
	if &got[0] == &b.Events[0] {
		t.Fatal("a filtered result aliases the received batch")
	}
	for i := range before {
		if b.Events[i].ID != before[i].ID || b.Events[i].Range != before[i].Range || b.Events[i].Type != before[i].Type {
			t.Fatalf("event %d of the received batch changed", i)
		}
	}

	// The query path (nil local Range) drops only invalid events.
	got, echoes = nativeEvents(b, guid.Nil)
	if echoes != 0 || len(got) != 4 {
		t.Fatalf("query path kept %d with %d echoes, want 4 and 0", len(got), echoes)
	}
}

// TestKeepMatchingCopiesOnlyWhenFiltering: the local-interest filter
// returns its input when every event matches, and a copy of the matching
// events otherwise.
func TestKeepMatchingCopiesOnlyWhenFiltering(t *testing.T) {
	b, _ := ingestBatch()
	evs := b.Events[:4]
	all := []event.Filter{{Type: ctxtype.TemperatureCelsius}}
	if got := keepMatching(evs, all, nil); len(got) != 4 || &got[0] != &evs[0] {
		t.Fatal("a batch that filters nothing was copied")
	}
	some := []event.Filter{{Type: ctxtype.PrinterStatus}, {Type: ctxtype.TemperatureCelsius, MinQuality: 0.5}}
	evs[2].Quality = 0.9
	if got := keepMatching(evs, some, nil); len(got) != 1 || got[0].Seq != 3 || &got[0] == &evs[2] {
		t.Fatalf("kept %v, want a copy of seq 3 alone", got)
	}
	if got := keepMatching(evs, nil, nil); len(got) != 0 {
		t.Fatalf("no filter kept %d events", len(got))
	}
}
