package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative sample not clamped to zero")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	// Quantile estimates are bucket upper bounds: they must be ≥ the true
	// quantile and ≤ max.
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		got := h.Quantile(q)
		trueQ := int64(q * 1000)
		if got < trueQ {
			t.Errorf("Quantile(%v) = %d < true %d", q, got, trueQ)
		}
		if got > h.Max() {
			t.Errorf("Quantile(%v) = %d > max %d", q, got, h.Max())
		}
	}
	// Out-of-range q clamped.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("q clamping broken")
	}
}

func TestHistogramRecordDurationAndSnapshot(t *testing.T) {
	var h Histogram
	h.RecordDuration(time.Millisecond)
	h.RecordDuration(2 * time.Millisecond)
	if h.Count() != 2 || h.Max() != int64(2*time.Millisecond) {
		t.Fatalf("Count/Max = %d/%d", h.Count(), h.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(r.Intn(1 << 20)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
}

func TestPropQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			h.Record(int64(r.Intn(1 << 30)))
		}
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		vals := make([]int64, len(qs))
		for i, q := range qs {
			vals[i] = h.Quantile(q)
		}
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) ||
			func() bool { // non-strict monotone acceptable
				for i := 1; i < len(vals); i++ {
					if vals[i] < vals[i-1] {
						return false
					}
				}
				return true
			}()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}
