package main

import (
	"math"
	"math/bits"
	"sort"
)

// The histogram counts durations in 64 ns units, 32 sub-buckets per power of
// two: a bucket is at most 3.1 % wide and quantiles interpolate inside it,
// well within the tightest latency bound. 4 KiB each, so every subscription
// of local-fanout can keep one per measurement window.
const (
	histUnitShift = 6 // 64 ns
	histSubBits   = 5
	histSub       = 1 << histSubBits
	histMaxExp    = 36 // units are clamped below 2^36 (73 min)
	histBuckets   = (histMaxExp - histSubBits + 1) * histSub
)

// hist is a log-linear histogram of nanosecond durations with constant
// memory, so every sample of a 14 M-event run can be kept. Not safe for
// concurrent use: each recording goroutine owns its own and they are merged
// after the run.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    float64
}

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns) >> histUnitShift
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	e := bits.Len64(v) - 1
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns the nanosecond range [lo, hi) bucket i covers.
func histBounds(i int) (lo, hi float64) {
	const unit = 1 << histUnitShift
	if i < histSub {
		return float64(i * unit), float64((i + 1) * unit)
	}
	e := uint(i/histSub) + histSubBits - 1
	sub := uint64(i % histSub)
	width := uint64(1) << (e - histSubBits)
	l := uint64(1)<<e + sub*width
	return float64(l * unit), float64((l + width) * unit)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile interpolates linearly inside the bucket holding rank q·n, so two
// runs that land in the same bucket still report distinct values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// median returns the middle of vs (mean of the two middle values for an
// even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread is the distance between the first and third quartile of vs
// as a share of their median, with the quartiles placed as Python's
// statistics.quantiles(vs, n=4) places them (exclusive method) — the figure
// the benchmark contract holds every end-to-end metric to.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	const n = 4
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
