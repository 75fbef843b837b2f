// Package gaugefix is the gaugekey fixture. Each case is a StatsMap
// method, the one metric rendering the analyzer checks.
package gaugefix

import (
	"fmt"

	"sci/internal/guid"
)

const quotaKey = "eventbus.quota.rejected"

type src struct {
	name string
	n    uint64
}

// topSrc reduces the unbounded attribution map to its top entries plus an
// "other" bucket.
//
//lint:bounded
func topSrc(all map[string]uint64) []src {
	out := make([]src, 0, 8)
	for k, v := range all {
		if len(out) < 8 {
			out = append(out, src{name: k, n: v})
		}
	}
	return out
}

// unbounded mints a key per device: the canonical violations.
type unbounded struct {
	device guid.GUID
	n      int
}

func (u *unbounded) StatsMap() map[string]float64 {
	out := make(map[string]float64)
	out["per.device."+u.device.Short()] = float64(u.n)               // want `unbounded StatsMap key`
	out[fmt.Sprintf("dev.%s.seen", u.device.Short())] = float64(u.n) // want `unbounded StatsMap key`
	return out
}

// constKeys are always fine: literals, named constants and constant folds.
type constKeys struct{}

func (constKeys) StatsMap() map[string]float64 {
	out := map[string]float64{"eventbus.published": 1}
	out["eventbus.delivered"] = 2
	out[quotaKey] = 0.5
	out["dispatch."+"latency"] = 1
	return out
}

// boundedLoop derives keys inside a loop over a bounded reducer: at most
// K+1 distinct keys can exist.
type boundedLoop struct{ all map[string]uint64 }

func (b *boundedLoop) StatsMap() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range topSrc(b.all) {
		key := "eventbus.dropped.from.other"
		if e.name != "" {
			key = "eventbus.dropped.from." + e.name
		}
		out[key] += float64(e.n)
	}
	return out
}

// rawLoop ranges over the raw unbounded map: still a violation.
type rawLoop struct{ all map[string]uint64 }

func (r *rawLoop) StatsMap() map[string]float64 {
	out := make(map[string]float64)
	for k, v := range r.all {
		out["eventbus.dropped.from."+k] = float64(v) // want `unbounded StatsMap key`
	}
	return out
}

// suppressed documents a contributor whose boundedness is contractual.
type suppressed struct{ external func() map[string]float64 }

func (s *suppressed) StatsMap() map[string]float64 {
	out := make(map[string]float64)
	for name, v := range s.external() {
		out[name] = v //lint:allow gaugekey stats-source contributors are contractually bounded
	}
	return out
}
