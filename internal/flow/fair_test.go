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

func mkEventsFrom(src guid.GUID, n int, startSeq uint64, at time.Time) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.New(ctxtype.TemperatureCelsius, src, startSeq+uint64(i)+1, at, nil)
	}
	return out
}

func newFair(clk clock.Clock, maxBatch int, maxDelay time.Duration, rec *recorder,
	st *SharedStats, weights map[guid.GUID]int) *Coalescer {
	return New(Config{
		Clock:    clk,
		MaxBatch: maxBatch,
		MaxDelay: maxDelay,
		Fair:     Fair{Enabled: true, Weights: weights},
		Send:     rec.send,
		Stats:    st,
	})
}

// countBySource tallies a chunk per Event.Source.
func countBySource(events []event.Event) map[guid.GUID]int {
	out := make(map[guid.GUID]int)
	for i := range events {
		out[events[i].Source]++
	}
	return out
}

// TestFairDrainSharesChunk: with one source flooding and one paced, every
// shipped chunk carries the paced source's events — the flood cannot push
// them behind its own backlog.
func TestFairDrainSharesChunk(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	hot := guid.New(guid.KindDevice)
	well := guid.New(guid.KindDevice)
	c := newFair(clk, 8, 10*time.Millisecond, rec, nil, nil)

	// The flood arrives first and deep; the paced events arrive last.
	c.AddAll(mkEventsFrom(hot, 7, 0, clk.Now()))
	c.Add(mkEventsFrom(well, 1, 0, clk.Now())[0]) // 8th event: size flush
	if got := rec.sends(); got != 1 {
		t.Fatalf("sends = %d, want 1 size flush", got)
	}
	by := countBySource(rec.chunks[0])
	if by[well] != 1 {
		t.Fatalf("paced source absent from the flushed chunk: %v", by)
	}
	if by[hot] != 7 {
		t.Fatalf("chunk = %v, want the remaining 7 flood events", by)
	}
}

// TestFairWeightedSplit: a 3:1 weight split divides a full chunk 3:1 when
// both sources are backlogged.
func TestFairWeightedSplit(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	a := guid.New(guid.KindDevice)
	d := guid.New(guid.KindDevice)
	c := newFair(clk, 64, 10*time.Millisecond, rec, nil, map[guid.GUID]int{a: 3, d: 1})

	// Keep both far deeper than one chunk, added below the size trigger.
	c.AddAll(mkEventsFrom(a, 63, 0, clk.Now()))
	c.AddAll(mkEventsFrom(d, 63, 0, clk.Now())) // 126 total ≥ 64: size flush
	if got := rec.sends(); got != 1 {
		t.Fatalf("sends = %d, want 1", got)
	}
	by := countBySource(rec.chunks[0])
	if by[a] != 48 || by[d] != 16 {
		t.Fatalf("64-event chunk split %d:%d, want 48:16 for weights 3:1", by[a], by[d])
	}
}

// TestFairPerSourceFIFO: DRR reorders across sources but never within one.
func TestFairPerSourceFIFO(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	a := guid.New(guid.KindDevice)
	d := guid.New(guid.KindDevice)
	c := newFair(clk, 16, 10*time.Millisecond, rec, nil, nil)

	c.AddAll(mkEventsFrom(a, 10, 0, clk.Now()))
	c.AddAll(mkEventsFrom(d, 5, 0, clk.Now()))
	c.Flush()
	last := make(map[guid.GUID]uint64)
	for _, e := range rec.events() {
		if e.Seq <= last[e.Source] {
			t.Fatalf("source %s out of order: seq %d after %d", e.Source.Short(), e.Seq, last[e.Source])
		}
		last[e.Source] = e.Seq
	}
	if len(rec.events()) != 15 {
		t.Fatalf("flush shipped %d events, want all 15", len(rec.events()))
	}
}

// TestFairShedTargetsOffender: under a credit throttle the bounded buffer
// sheds from the deepest sub-queue — the flooding source — and attributes
// the loss to it; the paced source survives untouched.
func TestFairShedTargetsOffender(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	st := &SharedStats{}
	hot := guid.New(guid.KindDevice)
	well := guid.New(guid.KindDevice)
	c := newFair(clk, 2, 10*time.Millisecond, rec, st, nil)

	c.UpdateCredit(0, 100)
	c.UpdateCredit(9, 0)
	if c.Penalty() <= 1 {
		t.Fatal("not throttled")
	}
	limit := 2 * throttleBufferFactor
	c.AddAll(mkEventsFrom(well, 3, 0, clk.Now()))
	c.AddAll(mkEventsFrom(hot, limit+20, 0, clk.Now()))
	if got := c.PendingLen(); got != limit {
		t.Fatalf("pending = %d, want bounded at %d", got, limit)
	}
	if got := st.Shed.For(hot); got != 23 {
		t.Fatalf("flood shed = %d, want 23 (3 + limit + 20 − limit)", got)
	}
	if got := st.Shed.For(well); got != 0 {
		t.Fatalf("paced source shed %d events", got)
	}
	// The flood's survivors are its freshest; the paced events all survive.
	c.Flush()
	by := countBySource(rec.events())
	if by[well] != 3 {
		t.Fatalf("paced source delivered %d of 3", by[well])
	}
	var oldestHot uint64
	for _, e := range rec.events() {
		if e.Source == hot && (oldestHot == 0 || e.Seq < oldestHot) {
			oldestHot = e.Seq
		}
	}
	if oldestHot != 24 {
		t.Fatalf("flood shed kept the oldest: first surviving seq = %d, want 24", oldestHot)
	}
}

// TestFairTimerFlushShipsEverything: the delay-timer path drains every
// sub-queue, partial rounds included.
func TestFairTimerFlushShipsEverything(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	a := guid.New(guid.KindDevice)
	d := guid.New(guid.KindDevice)
	c := newFair(clk, 64, 10*time.Millisecond, rec, nil, nil)

	c.AddAll(mkEventsFrom(a, 3, 0, clk.Now()))
	c.AddAll(mkEventsFrom(d, 2, 0, clk.Now()))
	clk.Advance(10 * time.Millisecond)
	if got := len(rec.events()); got != 5 {
		t.Fatalf("timer flush shipped %d events, want 5", got)
	}
	if got := c.PendingLen(); got != 0 {
		t.Fatalf("pending = %d after timer flush", got)
	}
}

// TestFairSubQueueTableBounded: beyond guid.TableBound distinct sources the
// overflow events share the nil-GUID sub-queue; nothing is lost.
func TestFairSubQueueTableBounded(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	c := newFair(clk, 1<<20, time.Hour, rec, nil, nil)

	total := 0
	for i := 0; i < guid.TableBound+10; i++ {
		c.Add(mkEventsFrom(guid.New(guid.KindDevice), 1, 0, clk.Now())[0])
		total++
	}
	c.mu.Lock()
	subs := len(c.subs)
	c.mu.Unlock()
	// The bound admits guid.TableBound named queues plus the shared nil-GUID
	// overflow queue.
	if subs > guid.TableBound+1 {
		t.Fatalf("sub-queue table grew to %d, want ≤ %d", subs, guid.TableBound+1)
	}
	c.Flush()
	if got := len(rec.events()); got != total {
		t.Fatalf("flush shipped %d events, want all %d", got, total)
	}
}

// TestFairConcurrentConservation races multi-source adds against flushes
// and credit updates; no event is lost or duplicated.
func TestFairConcurrentConservation(t *testing.T) {
	clk := clock.NewManual(epoch)
	rec := &recorder{}
	st := &SharedStats{}
	c := newFair(clk, 8, 10*time.Millisecond, rec, st, nil)

	const (
		goroutines = 6
		perG       = 200
	)
	srcs := make([]guid.GUID, goroutines)
	for i := range srcs {
		srcs[i] = guid.New(guid.KindDevice)
	}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(src guid.GUID) {
			defer wg.Done()
			for j := 0; j < perG; j += 4 {
				c.AddAll(mkEventsFrom(src, 4, uint64(j), clk.Now()))
			}
		}(srcs[i])
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				c.Flush()
				c.UpdateCredit(0, 50)
			}
		}
	}()
	wg.Wait()
	close(done)
	c.Flush()
	if got := len(rec.events()); got != goroutines*perG {
		t.Fatalf("delivered %d events, want %d (none shed: never throttled)",
			got, goroutines*perG)
	}
	if got := st.Shed.Total(); got != 0 {
		t.Fatalf("unthrottled run shed %d events", got)
	}
}
