// Package metrics provides the lightweight counters, gauges and histograms
// the benchmark harness uses to characterise the infrastructure — hop
// counts and relay load in the SCINET overlay (experiment E1), discovery
// and repair latencies (E5, E8), end-to-end CAPA latency (E7).
//
// Histograms use fixed logarithmic buckets so recording is allocation-free
// and safe to call from hot paths and many goroutines at once.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
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

// FloatGauge is a settable instantaneous float64 value — ratios and rates
// such as the event dispatcher's index-hit ratio. The zero value reads 0.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

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

// Registry is a named collection of metrics; server.Range.FillMetrics
// exports a Range's gauges into one. Safe for concurrent use; the zero
// value is usable.
type Registry struct {
	mu      sync.Mutex
	counts  map[string]*Counter
	gauges  map[string]*Gauge
	fgauges map[string]*FloatGauge
	hists   map[string]*Histogram
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts == nil {
		r.counts = make(map[string]*Counter)
	}
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns (creating if needed) the named float gauge.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fgauges == nil {
		r.fgauges = make(map[string]*FloatGauge)
	}
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Dump renders all metrics sorted by name, one per line.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, c := range r.counts {
		lines = append(lines, fmt.Sprintf("counter %-40s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge   %-40s %d", n, g.Value()))
	}
	for n, g := range r.fgauges {
		lines = append(lines, fmt.Sprintf("fgauge  %-40s %.4f", n, g.Value()))
	}
	for n, h := range r.hists {
		s := h.Snapshot()
		lines = append(lines, fmt.Sprintf("hist    %-40s n=%d mean=%.1f p50=%d p99=%d max=%d",
			n, s.Count, s.Mean, s.P50, s.P99, s.Max))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
