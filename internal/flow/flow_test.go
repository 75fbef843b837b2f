package flow

import (
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

var epoch = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

// recorder captures every Send chunk, thread-safe.
type recorder struct {
	mu     sync.Mutex
	chunks [][]event.Event
}

func (r *recorder) send(batch []event.Event) {
	r.mu.Lock()
	cp := make([]event.Event, len(batch))
	copy(cp, batch)
	r.chunks = append(r.chunks, cp)
	r.mu.Unlock()
}

func (r *recorder) sends() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.chunks)
}

func (r *recorder) events() []event.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []event.Event
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

func (r *recorder) maxChunk() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := 0
	for _, c := range r.chunks {
		if len(c) > m {
			m = len(c)
		}
	}
	return m
}

func mkEvents(n int, at time.Time) []event.Event {
	src := guid.New(guid.KindDevice)
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.New(ctxtype.TemperatureCelsius, src, uint64(i+1), at, nil)
	}
	return out
}

func newStatic(clk clock.Clock, maxBatch int, maxDelay time.Duration, rec *recorder, st *SharedStats) *Coalescer {
	return New(Config{Clock: clk, MaxBatch: maxBatch, MaxDelay: maxDelay, Send: rec.send, Stats: st})
}

func TestSizeFlushBudgetAndTailHoldback(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := newStatic(clk, 4, 50*time.Millisecond, rec, nil)

	events := mkEvents(10, epoch)
	for _, e := range events {
		c.Add(e)
	}
	// Two full chunks leave on fill; the trailing partial (10 mod 4 = 2)
	// waits for the delay timer.
	if got := rec.sends(); got != 2 {
		t.Fatalf("size flushes sent %d chunks, want 2", got)
	}
	if got := c.PendingLen(); got != 2 {
		t.Fatalf("held-back tail = %d, want 2", got)
	}
	clk.Advance(50 * time.Millisecond)
	if got := rec.sends(); got != 3 {
		t.Fatalf("after delay flush sent %d chunks, want 3 (= ceil(10/4))", got)
	}
	got := rec.events()
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("coalescing reordered events at %d: seq=%d", i, e.Seq)
		}
	}
	if rec.maxChunk() > 4 {
		t.Fatalf("chunk of %d exceeds MaxBatch=4", rec.maxChunk())
	}
}

func TestAddAllSingleAcquisitionBudget(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := newStatic(clk, 8, 10*time.Millisecond, rec, nil)

	c.AddAll(mkEvents(21, epoch))
	if got := rec.sends(); got != 2 {
		t.Fatalf("size flush sent %d chunks for 21 events at batch 8, want 2", got)
	}
	clk.Advance(10 * time.Millisecond)
	if got := rec.sends(); got != 3 {
		t.Fatalf("delay flush: %d chunks, want 3", got)
	}
	if got := len(rec.events()); got != 21 {
		t.Fatalf("delivered %d, want 21", got)
	}
}

func TestDelayTimerDisarmedWhenEmpty(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := newStatic(clk, 4, 10*time.Millisecond, rec, nil)

	c.AddAll(mkEvents(3, epoch))
	c.Flush()
	if got := rec.sends(); got != 1 {
		t.Fatalf("flush sent %d chunks, want 1", got)
	}
	if n := clk.PendingCount(); n != 0 {
		t.Fatalf("%d timers still armed after an emptying flush", n)
	}
}

func TestCloseFlushThenDiscard(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := newStatic(clk, 8, 10*time.Millisecond, rec, nil)

	c.AddAll(mkEvents(5, epoch))
	c.Flush()
	c.Discard()
	if got := len(rec.events()); got != 5 {
		t.Fatalf("close flush shipped %d events, want 5", got)
	}
	c.AddAll(mkEvents(3, epoch))
	c.Flush()
	if got := len(rec.events()); got != 5 {
		t.Fatalf("add after Discard shipped events: %d", got)
	}
	if n := clk.PendingCount(); n != 0 {
		t.Fatalf("%d timers armed after Discard", n)
	}
}

// TestAdaptiveBatchFollowsArrivalRate ramps the arrival rate with a manual
// clock and asserts the effective batch size tracks it: floor while idle,
// ceiling under load, back to the floor after the rate collapses.
func TestAdaptiveBatchFollowsArrivalRate(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := New(Config{
		Clock:    clk,
		MaxBatch: 64,
		MaxDelay: 10 * time.Millisecond,
		Send:     rec.send,
		Adaptive: Adaptive{Enabled: true},
	})

	if got := c.EffectiveBatch(); got != 1 {
		t.Fatalf("cold effective batch = %d, want the floor 1", got)
	}
	if got := c.EffectiveDelay(); got != 0 {
		t.Fatalf("cold effective delay = %v, want the floor 0", got)
	}

	// Trickle: one event per 10ms ≈ 100/s → ~1 expected arrival per delay
	// window: stays at the floor, so each event flushes immediately.
	for i := 0; i < 20; i++ {
		clk.Advance(10 * time.Millisecond)
		c.AddAll(mkEvents(1, clk.Now()))
	}
	if got := c.EffectiveBatch(); got > 2 {
		t.Fatalf("trickle effective batch = %d, want ~1", got)
	}
	if got := len(rec.events()); got != 20 {
		t.Fatalf("trickle delivered %d of 20 (idle events must not wait)", got)
	}

	// Ramp: 100 events per 10ms ≈ 10k/s → 100 expected per window, clamped
	// to the 64 ceiling.
	for i := 0; i < 100; i++ {
		clk.Advance(10 * time.Millisecond)
		c.AddAll(mkEvents(100, clk.Now()))
	}
	if got := c.EffectiveBatch(); got != 64 {
		t.Fatalf("hot effective batch = %d, want the 64 ceiling", got)
	}
	if got := c.EffectiveDelay(); got != 10*time.Millisecond {
		t.Fatalf("hot effective delay = %v, want the 10ms ceiling", got)
	}

	// Collapse: a long idle gap folds the rate back down on the next
	// arrival.
	clk.Advance(5 * time.Second)
	c.AddAll(mkEvents(1, clk.Now()))
	if got := c.EffectiveBatch(); got > 2 {
		t.Fatalf("post-idle effective batch = %d, want back near the floor", got)
	}
	c.Flush()
}

// TestAdaptiveBudgetExactUnderAdaptation: a stream arriving at the
// adapted rate costs exactly ⌈N/effectiveBatch⌉ sends — each flush fires
// as pending reaches the effective batch — with no chunk ever exceeding
// the MaxBatch ceiling.
func TestAdaptiveBudgetExactUnderAdaptation(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := New(Config{
		Clock:    clk,
		MaxBatch: 64,
		MaxDelay: 10 * time.Millisecond,
		Send:     rec.send,
		Adaptive: Adaptive{Enabled: true},
	})
	// Stabilise at an intermediate rate: 20 events per 10ms → ~20/window.
	for i := 0; i < 200; i++ {
		clk.Advance(10 * time.Millisecond)
		c.AddAll(mkEvents(20, clk.Now()))
	}
	clk.Advance(10 * time.Millisecond)
	c.Flush()
	eff := c.EffectiveBatch()
	if eff <= 1 || eff >= 64 {
		t.Fatalf("effective batch = %d, want an adapted intermediate value", eff)
	}

	// Same-instant arrivals leave the rate (and eff) frozen, so the budget
	// is exact: k runs of eff events cost k sends, and a run with a tail
	// costs ⌈run/eff⌉ once the tail's delay flush lands.
	before := rec.sends()
	for i := 0; i < 5; i++ {
		c.AddAll(mkEvents(eff, clk.Now()))
	}
	if got := rec.sends() - before; got != 5 {
		t.Fatalf("5 runs of eff=%d cost %d sends, want 5", eff, got)
	}
	c.AddAll(mkEvents(eff+3, clk.Now()))
	c.Flush()
	if got := rec.sends() - before; got != 7 {
		t.Fatalf("eff+3 run cost %d extra sends at eff=%d, want 2 (= ceil((eff+3)/eff))",
			rec.sends()-before-5, eff)
	}
	if rec.maxChunk() > 64 {
		t.Fatalf("chunk of %d exceeds ceiling", rec.maxChunk())
	}
}

// TestAdaptiveIdleBurstRidesCeilingChunks: a surprise burst against an
// idle endpoint (effective batch at the floor) must not ship one message
// per event — flushing is immediate, but chunks ride the MaxBatch
// ceiling: ⌈burst/MaxBatch⌉ sends.
func TestAdaptiveIdleBurstRidesCeilingChunks(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := New(Config{
		Clock:    clk,
		MaxBatch: 64,
		MaxDelay: 10 * time.Millisecond,
		Send:     rec.send,
		Adaptive: Adaptive{Enabled: true},
	})
	if got := c.EffectiveBatch(); got != 1 {
		t.Fatalf("cold effective batch = %d, want 1", got)
	}
	c.AddAll(mkEvents(100, clk.Now()))
	if got := rec.sends(); got != 2 {
		t.Fatalf("idle burst of 100 cost %d sends, want 2 (= ceil(100/64))", got)
	}
	if rec.maxChunk() > 64 {
		t.Fatalf("chunk of %d exceeds ceiling", rec.maxChunk())
	}
	if got := len(rec.events()); got != 100 {
		t.Fatalf("delivered %d of 100", got)
	}
}

// TestCreditCollapseThrottlesFlushRate: receiver-reported drops suppress
// size flushes and pace the timer at a stretched delay; healthy reports
// decay the penalty back and size flushing resumes.
func TestCreditCollapseThrottlesFlushRate(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	st := &SharedStats{}
	c := newStatic(clk, 8, 10*time.Millisecond, rec, st)

	c.UpdateCredit(0, 100) // baseline: healthy
	if c.Throttled() {
		t.Fatal("healthy credit throttled the coalescer")
	}
	c.UpdateCredit(5, 3) // 5 new drops: credit collapsed
	if !c.Throttled() {
		t.Fatal("drop report did not throttle")
	}
	if got := st.Throttled.Value(); got != 1 {
		t.Fatalf("Throttled gauge = %d, want 1", got)
	}
	if got := st.DropsReported.Value(); got != 5 {
		t.Fatalf("DropsReported = %d, want 5", got)
	}

	// A full batch no longer size-flushes; the stretched timer ships it.
	c.AddAll(mkEvents(8, clk.Now()))
	if got := rec.sends(); got != 0 {
		t.Fatalf("throttled coalescer size-flushed %d chunks", got)
	}
	clk.Advance(10 * time.Millisecond) // the unstretched delay: too early
	if got := rec.sends(); got != 0 {
		t.Fatalf("throttled flush fired at the unstretched delay")
	}
	clk.Advance(10 * time.Millisecond) // 2× penalty reached
	if got := rec.sends(); got != 1 {
		t.Fatalf("stretched timer flush sent %d chunks, want 1", got)
	}

	// Healthy acks decay the penalty; size flushing resumes.
	for i := 0; i < 4 && c.Throttled(); i++ {
		c.UpdateCredit(5, 100)
	}
	if c.Throttled() {
		t.Fatal("penalty did not decay on healthy credit")
	}
	if got := st.Throttled.Value(); got != 0 {
		t.Fatalf("Throttled gauge = %d after recovery, want 0", got)
	}
	c.AddAll(mkEvents(8, clk.Now()))
	if got := rec.sends(); got != 2 {
		t.Fatalf("recovered coalescer did not size-flush: %d sends", got)
	}
}

// TestThrottledBufferShedsOldest: sustained overload is bounded sender-side
// by shedding the oldest pending events, counted in the shared stats.
func TestThrottledBufferShedsOldest(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	st := &SharedStats{}
	c := newStatic(clk, 2, 10*time.Millisecond, rec, st)

	c.UpdateCredit(0, 100)
	c.UpdateCredit(9, 0)
	if !c.Throttled() {
		t.Fatal("not throttled")
	}
	limit := 2 * throttleBufferFactor
	c.AddAll(mkEvents(limit+10, clk.Now()))
	if got := c.PendingLen(); got != limit {
		t.Fatalf("pending = %d, want bounded at %d", got, limit)
	}
	if got := st.EventsShed.Value(); got != 10 {
		t.Fatalf("EventsShed = %d, want 10", got)
	}
	// The survivors are the freshest.
	c.Flush()
	evs := rec.events()
	if evs[0].Seq != 11 {
		t.Fatalf("shed kept the oldest: first surviving seq = %d, want 11", evs[0].Seq)
	}
}

// TestConcurrentAddFlushCredit exercises the locking under -race. The
// credit goroutine throttles the coalescer, and a throttled coalescer sheds
// its oldest events, so the check is conservation: every event added is
// delivered, shed, or dropped by the final Discard.
func TestConcurrentAddFlushCredit(t *testing.T) {
	rec := &recorder{}
	st := &SharedStats{}
	c := New(Config{
		Clock:    clock.Real(),
		MaxBatch: 16,
		MaxDelay: time.Millisecond,
		Send:     rec.send,
		Adaptive: Adaptive{Enabled: true},
		Stats:    st,
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.AddAll(mkEvents(3, epoch))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.UpdateCredit(uint64(i/30), 50)
			c.Flush()
		}
	}()
	wg.Wait()
	c.Flush()
	discarded := c.PendingLen()
	c.Discard()
	delivered, shed := len(rec.events()), int(st.EventsShed.Value())
	if got := delivered + shed + discarded; got != 4*200*3 {
		t.Fatalf("delivered %d + shed %d + discarded %d = %d events, want %d",
			delivered, shed, discarded, got, 4*200*3)
	}
}

// TestReceiverRestartRebaselinesCredit: a credit report below the baseline
// (the receiver restarted and its cumulative counter reset) re-baselines
// drop detection instead of freezing it until the fresh counter re-passes
// the stale high-water mark — the very next genuine drop must throttle.
func TestReceiverRestartRebaselinesCredit(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	st := &SharedStats{}
	c := newStatic(clk, 8, 10*time.Millisecond, rec, st)

	c.UpdateCredit(1000, 100) // baseline, far along the old counter
	c.UpdateCredit(1050, 3)   // 50 new drops: throttled
	if !c.Throttled() {
		t.Fatal("drop report did not throttle")
	}
	for i := 0; i < 10 && c.Throttled(); i++ {
		c.UpdateCredit(1050, 100)
	}
	if c.Throttled() {
		t.Fatal("healthy reports did not recover")
	}

	// Restart: the counter regresses to zero. Not congestion — no throttle.
	c.UpdateCredit(0, 100)
	if c.Throttled() {
		t.Fatal("counter regression read as congestion")
	}
	// The stale 1050 baseline must be gone: 5 post-restart drops are a
	// fresh delta, not a report still 1045 short of the high-water mark.
	c.UpdateCredit(5, 3)
	if !c.Throttled() {
		t.Fatal("post-restart drops frozen behind the stale baseline")
	}
	if got := st.DropsReported.Value(); got != 55 {
		t.Fatalf("DropsReported = %d, want 55 (50 pre-restart + 5 post)", got)
	}
}

// TestRateTrackerEstimate: the exported tracker converges on a steady
// arrival rate, buffers same-instant arrivals until the clock moves, and
// decays when traffic stops.
func TestRateTrackerEstimate(t *testing.T) {
	rt := NewRateTracker(100 * time.Millisecond)
	now := epoch
	if rt.Observe(10, now) {
		t.Fatal("first observation cannot move the estimate")
	}
	if rt.Rate() != 0 {
		t.Fatalf("rate before time passed = %v, want 0", rt.Rate())
	}
	// 100 events every 10ms = 10k events/s, for 50 ticks (5 half-lives).
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Millisecond)
		if !rt.Observe(100, now) {
			t.Fatal("observation across a clock tick did not fold")
		}
	}
	if r := rt.Rate(); r < 9000 || r > 11000 {
		t.Fatalf("steady 10k/s stream estimated at %.0f", r)
	}
	// Same-instant arrivals buffer and fold on the next tick.
	if rt.Observe(100, now) {
		t.Fatal("same-instant arrival folded without time passing")
	}
	now = now.Add(10 * time.Millisecond)
	rt.Observe(0, now)
	if r := rt.Rate(); r < 9000 || r > 11000 {
		t.Fatalf("buffered same-instant arrivals lost: %.0f", r)
	}
	// A long silent gap collapses the estimate.
	now = now.Add(2 * time.Second)
	rt.Observe(0, now)
	if r := rt.Rate(); r > 100 {
		t.Fatalf("estimate after 20 half-lives of silence = %.0f, want ~0", r)
	}
}

// TestAckCoalescerRateLimitsReports: the leading report is immediate,
// figure-moving reports are rate-limited to one per window, no-news
// reports wait the idle window, and Take claims a pending report for
// piggybacking (suppressing its standalone send).
func TestAckCoalescerRateLimitsReports(t *testing.T) {
	clk := clock.NewManual(epoch)
	var figure uint64
	type sent struct{ events int }
	var mu sync.Mutex
	var sends []sent
	a := NewAckCoalescer(AckConfig{
		Clock:      clk,
		Window:     2 * time.Millisecond,
		IdleWindow: 20 * time.Millisecond,
		Figure:     func() uint64 { return figure },
		Send: func(events int) bool {
			mu.Lock()
			sends = append(sends, sent{events})
			mu.Unlock()
			return true
		},
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(sends)
	}

	a.Note(4) // leading edge: immediate
	if count() != 1 {
		t.Fatalf("leading report not immediate: %d sends", count())
	}
	// A drop storm: the figure moves on every ingest, but reports stay
	// rate-limited to one per window.
	for i := 0; i < 100; i++ {
		figure += 3
		a.Note(1)
	}
	if count() != 1 {
		t.Fatalf("drop storm provoked %d sends within one window, want the initial 1", count())
	}
	clk.Advance(2 * time.Millisecond)
	if count() != 2 {
		t.Fatalf("window expiry sent %d reports, want exactly 1 more", count())
	}
	mu.Lock()
	if sends[1].events != 100 {
		mu.Unlock()
		t.Fatalf("deferred report covers %d frames, want the accumulated 100", sends[1].events)
	}
	mu.Unlock()

	// No-news reports wait the idle window, not the urgent one.
	a.Note(5)
	clk.Advance(2 * time.Millisecond)
	if count() != 2 {
		t.Fatal("no-news report left at the urgent window")
	}
	// An urgent note shortens the armed idle deferral to the window edge.
	figure += 1
	a.Note(1)
	clk.Advance(2 * time.Millisecond)
	if count() != 3 {
		t.Fatalf("urgent note did not shorten the idle deferral: %d sends", count())
	}

	// Take claims the pending report; nothing standalone follows.
	a.Note(7)
	clk.Advance(2 * time.Millisecond) // within idle window: still pending
	events, ok := a.Take()
	if !ok || events != 7 {
		t.Fatalf("Take = (%d, %v), want (7, true)", events, ok)
	}
	clk.Advance(40 * time.Millisecond)
	if count() != 3 {
		t.Fatalf("claimed report still went standalone: %d sends", count())
	}
	if _, ok := a.Take(); ok {
		t.Fatal("second Take claimed an already-taken report")
	}
	a.Stop()
	a.Note(1)
	clk.Advance(40 * time.Millisecond)
	if count() != 3 {
		t.Fatal("stopped coalescer still reported")
	}
}

// TestSendMayKeepChunks pins the Config.Send retention contract: a Send
// that keeps every chunk it is given, uncopied, still reads each one as it
// was shipped after size flushes, timer flushes, a held-back tail and the
// throttled shed path have all reused the Coalescer's buffer.
func TestSendMayKeepChunks(t *testing.T) {
	clk := clock.NewManual(epoch)
	var kept, shipped [][]event.Event
	c := New(Config{Clock: clk, MaxBatch: 4, MaxDelay: 10 * time.Millisecond,
		Send: func(batch []event.Event) {
			kept = append(kept, batch)
			shipped = append(shipped, append([]event.Event(nil), batch...))
		}})
	seq := uint64(0)
	next := func(n int) []event.Event {
		evs := mkEvents(n, clk.Now())
		for i := range evs {
			seq++
			evs[i].Seq = seq
		}
		return evs
	}

	c.AddAll(next(10)) // size flush of 8; a tail of 2 is held back
	if len(kept) != 2 || c.PendingLen() != 2 {
		t.Fatalf("size flush: %d chunks, %d pending; want 2 and 2", len(kept), c.PendingLen())
	}
	c.Add(next(1)[0])                  // appends behind the held-back tail
	clk.Advance(10 * time.Millisecond) // timer flush ships the tail
	if c.PendingLen() != 0 {
		t.Fatalf("timer flush left %d pending", c.PendingLen())
	}
	c.AddAll(next(6)) // size flush of 4, tail of 2

	c.UpdateCredit(0, 100)
	c.UpdateCredit(5, 0) // throttled: no size flushes, sheds past the bound
	if !c.Throttled() {
		t.Fatal("not throttled")
	}
	limit := 4 * throttleBufferFactor
	c.AddAll(next(limit))
	c.AddAll(next(3))
	if c.PendingLen() != limit {
		t.Fatalf("throttled pending = %d, want %d", c.PendingLen(), limit)
	}
	c.Flush()
	c.AddAll(next(5))
	c.Flush()

	if len(kept) < 4 {
		t.Fatalf("only %d chunks shipped", len(kept))
	}
	for i := range kept {
		if len(kept[i]) != len(shipped[i]) {
			t.Fatalf("chunk %d changed length: %d, shipped %d", i, len(kept[i]), len(shipped[i]))
		}
		for j := range kept[i] {
			if kept[i][j].ID != shipped[i][j].ID || kept[i][j].Seq != shipped[i][j].Seq {
				t.Fatalf("chunk %d event %d rewritten after Send: seq %d, shipped seq %d",
					i, j, kept[i][j].Seq, shipped[i][j].Seq)
			}
		}
	}
}
