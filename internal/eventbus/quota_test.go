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
	if got := b.QuotaRejectedFor(src); got != 15 {
		t.Fatalf("rejected = %d, want 15 (25 offered, burst 10)", got)
	}
	if st := b.Stats(); st.QuotaRejected != 15 {
		t.Fatalf("Stats().QuotaRejected = %d, want 15", st.QuotaRejected)
	}
	// Advance the clock: 50ms at 100/s refills 5 tokens.
	clk.Advance(50 * time.Millisecond)
	if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 10, &seq)); err != nil {
		t.Fatal(err)
	}
	if got := b.QuotaRejectedFor(src); got != 20 {
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
	by := b.QuotaRejectedBySource()
	if by[a] != 2 || by[c] != 2 {
		t.Fatalf("QuotaRejectedBySource = %v, want a:2 c:2", by)
	}
	var sum uint64
	for _, n := range by {
		sum += n
	}
	if st := b.Stats(); st.QuotaRejected != sum {
		t.Fatalf("Stats().QuotaRejected = %d, per-source sum %d", st.QuotaRejected, sum)
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
	if got := b.QuotaRejectedFor(a); got != 2 {
		t.Fatalf("source a rejected = %d, want 2 (6 offered, burst 4)", got)
	}
	if got := b.QuotaRejectedFor(c); got != 0 {
		t.Fatalf("source c rejected = %d, want 0 (3 within burst)", got)
	}
	by := b.QuotaRejectedBySource()
	if len(by) != 1 || by[a] != 2 {
		t.Fatalf("QuotaRejectedBySource = %v", by)
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
		rejected := b.QuotaRejectedFor(src)
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

// TestQuotaTableBounding: beyond maxQuotaSources distinct publishers per
// shard, newcomers share the nil-GUID overflow bucket instead of growing
// the table without bound.
func TestQuotaTableBounding(t *testing.T) {
	old := maxQuotaSources
	maxQuotaSources = 4
	defer func() { maxQuotaSources = old }()

	clk := clock.NewManual(t0)
	b := New(nil, WithShards(1), WithQuota(Quota{Rate: 100, Burst: 2, Clock: clk}))
	defer b.Close()

	var srcs []guid.GUID
	for i := 0; i < 8; i++ {
		src := guid.New(guid.KindDevice)
		srcs = append(srcs, src)
		var seq uint64
		if err := b.PublishAllOwnedFrom(src, mkBatchFrom(src, 3, &seq)); err != nil {
			t.Fatal(err)
		}
	}
	by := b.QuotaRejectedBySource()
	// First 4 sources own buckets (1 rejection each: 3 offered, burst 2);
	// the remaining 4 share the overflow bucket, whose burst admits 2 of
	// the 12 overflow events in total.
	named := 0
	for _, src := range srcs {
		if n, ok := by[src]; ok {
			named++
			if n != 1 {
				t.Fatalf("named source rejected %d, want 1", n)
			}
		}
	}
	if named != 4 {
		t.Fatalf("named quota buckets = %d, want maxQuotaSources = 4", named)
	}
	if got := by[guid.Nil]; got != 10 {
		t.Fatalf("overflow bucket rejected %d, want 10 (12 offered, burst 2)", got)
	}
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
	if got := b.QuotaRejectedFor(src); got != 0 {
		t.Fatalf("quota accounting active without WithQuota: %d", got)
	}
	if st := b.Stats(); st.QuotaRejected != 0 {
		t.Fatalf("Stats().QuotaRejected = %d without quota", st.QuotaRejected)
	}
}
