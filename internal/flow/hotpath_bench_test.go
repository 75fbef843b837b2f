package flow

// Allocation cross-check for this package's //lint:hotpath annotation on
// Coalescer.doFlush. The static analyzer proves the flush path free of
// allocating constructs up to its //lint:allow escapes (the fair-mode
// extraction, the once-per-tail timer re-arm); this test proves the
// steady-state flush — lock, extraction arithmetic, timer bookkeeping,
// chunked sends — adds nothing on top of the producer-side buffer that
// addN owns. internal/analysis/hotpath's registry test fails if the
// annotation exists without this check.

import (
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/guid"
)

// TestHotpathDoFlushZeroAlloc measures doFlush with a held-back partial
// tail: the size-triggered form (all=false) keeps the tail for the delay
// timer, so every call walks the full lock/extract/re-arm path and, after
// the first call armed the timer, must allocate nothing.
func TestHotpathDoFlushZeroAlloc(t *testing.T) {
	var sent int
	c := New(Config{
		Clock:    clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)),
		MaxBatch: 8,
		MaxDelay: 10 * time.Millisecond,
		Send:     func(batch []event.Event) { sent += len(batch) },
	})
	src := guid.New(guid.KindApplication)
	run := make([]event.Event, 5)
	for i := range run {
		run[i] = event.Event{Type: "bench.flow", Source: src, Seq: uint64(i + 1)}
	}
	c.AddAll(run) // 5 pending < MaxBatch of 8: the tail is held back
	c.doFlush(false)
	allocs := testing.AllocsPerRun(500, func() { c.doFlush(false) })
	if allocs != 0 {
		t.Fatalf("doFlush allocates %.1f times per call, want 0", allocs)
	}
	c.Flush()
	if sent != 5 {
		t.Fatalf("final flush shipped %d events, want 5", sent)
	}
}

// BenchmarkHotpathDoFlush measures the annotated flush alone, with a
// held-back tail so every iteration walks the full lock/extract/re-arm
// path: 0 allocs/op.
func BenchmarkHotpathDoFlush(b *testing.B) {
	c := New(Config{
		Clock:    clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)),
		MaxBatch: 8,
		MaxDelay: 10 * time.Millisecond,
		Send:     func([]event.Event) {},
	})
	src := guid.New(guid.KindApplication)
	run := make([]event.Event, 5)
	for i := range run {
		run[i] = event.Event{Type: "bench.flow", Source: src, Seq: uint64(i + 1)}
	}
	c.AddAll(run)
	c.doFlush(false) // arms the tail timer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.doFlush(false)
	}
}

// BenchmarkHotpathCoalescerCycle reports the full produce-and-ship cycle:
// the one allocation per op is the pending buffer addN grows (doFlush hands
// the backing array to Send, so it cannot be recycled), not the flush.
func BenchmarkHotpathCoalescerCycle(b *testing.B) {
	c := New(Config{
		Clock:    clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)),
		MaxBatch: 8,
		MaxDelay: 10 * time.Millisecond,
		Send:     func([]event.Event) {},
	})
	src := guid.New(guid.KindApplication)
	run := make([]event.Event, 8)
	for i := range run {
		run[i] = event.Event{Type: "bench.flow", Source: src, Seq: uint64(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddAll(run) // reaches MaxBatch: size-triggered flush
	}
}
