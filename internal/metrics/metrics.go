// Package metrics provides the lightweight counters, gauges, histograms and
// per-origin loss ledgers the infrastructure keeps as plain struct fields
// and the benchmark harness uses to characterise it — hop counts and relay load in the SCINET overlay
// (experiment E1), discovery and repair latencies (E5, E8), end-to-end CAPA
// latency (E7). A Range's figures reach operators through one rendering,
// server.Range.StatsMap, under dotted layer.metric names.
//
// Histograms use fixed logarithmic buckets so recording is allocation-free
// and safe to call from hot paths and many goroutines at once.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of logarithmic buckets: bucket i covers values
// in [2^(i-1), 2^i) with bucket 0 covering {0}.
const histBuckets = 64

// Histogram records a distribution of non-negative int64 samples (typically
// nanoseconds or hop counts) in logarithmic buckets. The zero value is ready
// to use and safe for concurrent recording.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64 // stored negated-with-offset; see Record
	minInit sync.Once
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	idx := 0
	if v > 0 {
		idx = 64 - bits.LeadingZeros64(uint64(v))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded sample (0 with no samples).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Min returns the smallest recorded sample (0 with no samples).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// using bucket upper edges; exact for values that are powers of two.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			upper := int64(1) << uint(i)
			if upper < 0 || upper > h.max.Load() {
				return h.max.Load()
			}
			return upper
		}
	}
	return h.max.Load()
}

// Snapshot summarises the histogram for reporting.
type Snapshot struct {
	Count uint64
	Mean  float64
	Min   int64
	P50   int64
	P90   int64
	P99   int64
	Max   int64
}

// Snapshot returns a point-in-time summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// DurationString renders a nanosecond-valued snapshot with duration units.
func (s Snapshot) DurationString() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, time.Duration(int64(s.Mean)).Round(time.Microsecond),
		time.Duration(s.P50), time.Duration(s.P99), time.Duration(s.Max))
}
