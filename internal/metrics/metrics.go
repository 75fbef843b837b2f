// Package metrics provides the lightweight counters, gauges, histograms and
// per-origin loss ledgers the infrastructure keeps as plain struct fields.
// The experiments record their distributions in histograms: hop counts in
// the SCINET overlay (experiment E1) and discovery latency (E5). A Range's
// figures reach operators through one rendering, server.Range.StatsMap,
// under dotted layer.metric names.
//
// Histograms use fixed logarithmic buckets so recording is allocation-free
// and safe to call from hot paths and many goroutines at once.
package metrics

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"sci/internal/guid"
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

// StripedCounter is a Counter for a path that several cores run at once:
// each increment names a key (a query's owner) and lands in that key's
// stripe, each stripe on a cache line of its own, so that increments for
// different keys write different lines. The zero value is ready to use.
type StripedCounter struct {
	stripes [counterStripes]struct {
		v atomic.Uint64
		_ [56]byte
	}
}

// counterStripes is how many stripes a StripedCounter has.
const counterStripes = 16

// Inc adds one in key's stripe. Byte 0 of a GUID is its kind tag, the
// same for every key of a kind, so the stripe comes from the random bytes.
func (c *StripedCounter) Inc(key guid.GUID) {
	c.stripes[binary.BigEndian.Uint32(key[1:5])%counterStripes].v.Add(1)
}

// Value returns the current count: the sum of the stripes.
func (c *StripedCounter) Value() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].v.Load()
	}
	return n
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

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
	max     atomic.Int64
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := 0
	if v > 0 {
		idx = 64 - bits.LeadingZeros64(uint64(v))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded sample (0 with no samples).
func (h *Histogram) Max() int64 { return h.max.Load() }

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
