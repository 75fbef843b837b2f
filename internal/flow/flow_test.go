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

// TestSizeFlushBudgetAndTailHoldback: size flushes ship whole MaxBatch
// chunks and hold the partial tail back for the delay timer, so N events
// cost ⌈N/MaxBatch⌉ sends in order, whether they arrive one by one or as a
// burst against an idle coalescer. MaxBatch 0 is raised to 1: every event
// ships at once as its own batch, with no tail left for the timer.
func TestSizeFlushBudgetAndTailHoldback(t *testing.T) {
	for _, tc := range []struct {
		name          string
		maxBatch, n   int
		burst         bool // one AddAll instead of n Adds
		sizeSends     int  // sends before the delay elapses
		tail, allSend int
	}{
		{name: "per-event adds", maxBatch: 4, n: 10, sizeSends: 2, tail: 2, allSend: 3},
		{name: "idle burst rides MaxBatch chunks", maxBatch: 64, n: 100, burst: true, sizeSends: 1, tail: 36, allSend: 2},
		{name: "one-event batches", maxBatch: 0, n: 3, burst: true, sizeSends: 3, tail: 0, allSend: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual(epoch)
			rec := &recorder{}
			c := newStatic(clk, tc.maxBatch, 50*time.Millisecond, rec, nil)

			events := mkEvents(tc.n, epoch)
			if tc.burst {
				c.AddAll(events)
			} else {
				for _, e := range events {
					c.Add(e)
				}
			}
			if got := rec.sends(); got != tc.sizeSends {
				t.Fatalf("size flushes sent %d chunks, want %d", got, tc.sizeSends)
			}
			if got := c.PendingLen(); got != tc.tail {
				t.Fatalf("held-back tail = %d, want %d", got, tc.tail)
			}
			clk.Advance(50 * time.Millisecond)
			if got := rec.sends(); got != tc.allSend {
				t.Fatalf("after delay flush sent %d chunks, want %d", got, tc.allSend)
			}
			got := rec.events()
			if len(got) != tc.n {
				t.Fatalf("delivered %d events, want %d", len(got), tc.n)
			}
			for i, e := range got {
				if e.Seq != uint64(i+1) {
					t.Fatalf("coalescing reordered events at %d: seq=%d", i, e.Seq)
				}
			}
			if limit := max(tc.maxBatch, 1); rec.maxChunk() > limit {
				t.Fatalf("chunk of %d exceeds MaxBatch=%d", rec.maxChunk(), limit)
			}
		})
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

// TestConcurrentAddFlushCredit exercises the locking under -race, at
// MaxBatch 1 (every add flushes in its own goroutine) and 16. The credit
// goroutine throttles the coalescer, and a throttled coalescer sheds its
// oldest events, so the check is conservation: every event added is
// delivered, shed, or dropped by the final Discard.
func TestConcurrentAddFlushCredit(t *testing.T) {
	for _, maxBatch := range []int{1, 16} {
		rec := &recorder{}
		st := &SharedStats{}
		c := New(Config{
			Clock:    clock.Real(),
			MaxBatch: maxBatch,
			MaxDelay: time.Millisecond,
			Send:     rec.send,
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
			t.Fatalf("MaxBatch %d: delivered %d + shed %d + discarded %d = %d events, want %d",
				maxBatch, delivered, shed, discarded, got, 4*200*3)
		}
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
