package eventbus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
)

func mkEventFrom(src guid.GUID, seq uint64) event.Event {
	return event.New(ctxtype.TemperatureCelsius, src, seq, t0, nil)
}

func mkBatchFrom(src guid.GUID, n int, seq *uint64) []event.Event {
	out := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		*seq++
		out = append(out, mkEventFrom(src, *seq))
	}
	return out
}

// TestQuotaAdmitsBurstThenClips: with the clock frozen, each publisher
// admits exactly its burst and sheds the rest, counted per source.
func TestQuotaAdmitsBurstThenClips(t *testing.T) {
	clk := clock.NewManual(t0)
	b := New(nil, WithQuota(Quota{Rate: 100, Burst: 10, Clock: clk}))
	defer b.Close()
	src := guid.New(guid.KindDevice)
	var seq uint64
	for i := 0; i < 5; i++ {
		if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 5, &seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.QuotaRejects().For(src); got != 15 {
		t.Fatalf("rejected = %d, want 15 (25 offered, burst 10)", got)
	}
	if got := b.QuotaRejects().Total(); got != 15 {
		t.Fatalf("QuotaRejects().Total() = %d, want 15", got)
	}
	// Advance the clock: 50ms at 100/s refills 5 tokens.
	clk.Advance(50 * time.Millisecond)
	if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 10, &seq)); err != nil {
		t.Fatal(err)
	}
	if got := b.QuotaRejects().For(src); got != 20 {
		t.Fatalf("rejected = %d after refill, want 20 (5 of 10 admitted)", got)
	}
}

// TestQuotaRejectMode: Reject surfaces a typed error instead of shedding,
// and a single-event Publish is all-or-nothing.
func TestQuotaRejectMode(t *testing.T) {
	clk := clock.NewManual(t0)
	b := New(nil, WithQuota(Quota{Rate: 100, Burst: 2, Reject: true, Clock: clk}))
	defer b.Close()
	src := guid.New(guid.KindDevice)
	var seq uint64
	for i := 0; i < 2; i++ {
		seq++
		if err := b.Publish(mkEventFrom(src, seq)); err != nil {
			t.Fatalf("within burst: %v", err)
		}
	}
	seq++
	err := b.Publish(mkEventFrom(src, seq))
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-burst Publish = %v, want ErrOverQuota", err)
	}
	var oq *OverQuotaError
	if !errors.As(err, &oq) || oq.Publisher != src || oq.Rejected != 1 {
		t.Fatalf("typed error = %+v", err)
	}
	if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 3, &seq)); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-quota batch = %v, want ErrOverQuota", err)
	}
	// Another publisher is unaffected.
	other := guid.New(guid.KindDevice)
	var oseq uint64
	if err := b.PublishAllOwnedFrom(other, mkBatchFrom(other, 2, &oseq)); err != nil {
		t.Fatalf("independent publisher rejected: %v", err)
	}
}

// TestQuotaRejectRefundsEarlierRuns: in Reject mode a per-source batch
// refused because a later run is over quota spends no tokens on the runs
// before it, and every event of the call is counted against its own Source.
func TestQuotaRejectRefundsEarlierRuns(t *testing.T) {
	clk := clock.NewManual(t0)
	b := New(nil, WithQuota(Quota{Rate: 100, Burst: 2, Reject: true, Clock: clk}))
	defer b.Close()
	a := guid.New(guid.KindDevice)
	c := guid.New(guid.KindDevice)
	var aseq, cseq uint64
	if err := b.PublishAll(mkBatchFrom(c, 2, &cseq)); err != nil {
		t.Fatalf("c within burst: %v", err)
	}
	// [A,A,C,C]: A's run fits, C's bucket is empty.
	batch := append(mkBatchFrom(a, 2, &aseq), mkBatchFrom(c, 2, &cseq)...)
	err := b.PublishAll(batch)
	var oq *OverQuotaError
	if !errors.As(err, &oq) || oq.Publisher != c || oq.Rejected != 4 {
		t.Fatalf("over-quota batch = %v, want OverQuotaError{c, 4}", err)
	}
	// Same instant: A's tokens were given back.
	if err := b.PublishAll(mkBatchFrom(a, 2, &aseq)); err != nil {
		t.Fatalf("A after refused batch: %v", err)
	}
	by := shares(b.QuotaRejects())
	if by[a] != 2 || by[c] != 2 {
		t.Fatalf("QuotaRejects() = %v, want a:2 c:2", by)
	}
	var sum uint64
	for _, n := range by {
		sum += n
	}
	if got := b.QuotaRejects().Total(); got != sum {
		t.Fatalf("QuotaRejects().Total() = %d, per-source sum %d", got, sum)
	}
}

// TestQuotaNilPublisherChargesPerSource: PublishAll (no explicit publisher)
// charges each run of events against its own Source.
func TestQuotaNilPublisherChargesPerSource(t *testing.T) {
	clk := clock.NewManual(t0)
	b := New(nil, WithQuota(Quota{Rate: 100, Burst: 4, Clock: clk}))
	defer b.Close()
	a := guid.New(guid.KindDevice)
	c := guid.New(guid.KindDevice)
	var aseq, cseq uint64
	batch := append(mkBatchFrom(a, 6, &aseq), mkBatchFrom(c, 3, &cseq)...)
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	if got := b.QuotaRejects().For(a); got != 2 {
		t.Fatalf("source a rejected = %d, want 2 (6 offered, burst 4)", got)
	}
	if got := b.QuotaRejects().For(c); got != 0 {
		t.Fatalf("source c rejected = %d, want 0 (3 within burst)", got)
	}
	by := shares(b.QuotaRejects())
	if len(by) != 1 || by[a] != 2 {
		t.Fatalf("QuotaRejects() = %v", by)
	}
}

// TestQuotaConcurrentFloodConservation: many goroutines flooding distinct
// sources race the bucket table; every source admits exactly its burst
// (frozen clock) and offered == admitted + rejected for each.
func TestQuotaConcurrentFloodConservation(t *testing.T) {
	defer leak.Check(t)()
	const (
		sources  = 8
		perG     = 500
		burst    = 25
		batchLen = 7
	)
	clk := clock.NewManual(t0)
	b := New(nil, WithQuota(Quota{Rate: 1000, Burst: burst, Clock: clk}))
	defer b.Close()

	var mu sync.Mutex
	counts := make(map[guid.GUID]int)
	if _, err := b.Subscribe(event.Filter{}, func(e event.Event) {
		mu.Lock()
		counts[e.Source]++
		mu.Unlock()
	}, WithQueueLen(sources*perG*batchLen)); err != nil {
		t.Fatal(err)
	}

	srcs := make([]guid.GUID, sources)
	for i := range srcs {
		srcs[i] = guid.New(guid.KindDevice)
	}
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(src guid.GUID) {
			defer wg.Done()
			var seq uint64
			for j := 0; j < perG; j++ {
				_ = b.PublishAllOwnedFrom(src, mkBatchFrom(src, batchLen, &seq))
			}
		}(srcs[i])
	}
	wg.Wait()
	for _, src := range srcs {
		offered := uint64(perG * batchLen)
		rejected := b.QuotaRejects().For(src)
		if admitted := offered - rejected; admitted != burst {
			t.Fatalf("source %s admitted %d, want exactly burst %d (frozen clock)",
				src.Short(), admitted, burst)
		}
	}
	// Every admitted event reached the subscriber: offered == delivered +
	// rejected per source.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, src := range srcs {
			if counts[src] != burst {
				return false
			}
		}
		return true
	})
}

// TestQuotaDisabledNoOverhead: without WithQuota, publishing carries no
// quota accounting at all.
func TestQuotaDisabledNoOverhead(t *testing.T) {
	b := New(nil)
	defer b.Close()
	src := guid.New(guid.KindDevice)
	var seq uint64
	if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 100, &seq)); err != nil {
		t.Fatal(err)
	}
	if got := b.QuotaRejects().For(src); got != 0 {
		t.Fatalf("quota accounting active without WithQuota: %d", got)
	}
	if got := b.QuotaRejects().Total(); got != 0 {
		t.Fatalf("QuotaRejects().Total() = %d without quota", got)
	}
}
