package server

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/mediator"
)

// lossFamilyKeys are the StatsMap totals of the Range's three per-origin
// loss families: dispatch drops, quota rejects and throttled sheds.
var lossFamilyKeys = []string{"eventbus.dropped", "eventbus.quota.rejected", "remote.backpressure.shed"}

// originSuffix is the short GUID form an origin's key ends in.
var originSuffix = regexp.MustCompile(`^[a-z]+:[0-9a-f]{8}…$`)

// TestLossFamiliesShape causes one drop, one quota reject and one throttled
// shed on a single Range, each charged to its own origin, and checks that
// StatsMap renders all three families in one shape: the total under K, the
// origins under K.from.<short GUID> and K.from.other, and nothing else
// under K; that the .from keys of each family sum to K; and that each
// origin is named under its own family.
func TestLossFamiliesShape(t *testing.T) {
	t0 := time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)
	clk := clock.NewManual(t0)
	rng := New(Config{Name: "lossy", Clock: clk, PublisherQuota: PublisherQuota{Rate: 1, Burst: 3}})
	defer rng.Close()
	mk := func(typ ctxtype.Type, src guid.GUID, n int) []event.Event {
		out := make([]event.Event, n)
		for i := range out {
			out[i] = event.New(typ, src, uint64(i+1), t0, nil)
		}
		return out
	}

	// One drop: a one-event queue whose handler is parked holds the second
	// event; the third evicts it, charged to its publisher.
	dropSrc := guid.New(guid.KindDevice)
	entered, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	first := true
	if _, err := rng.Mediator().Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
			if first {
				first = false
				close(entered)
				<-gate
			}
		}, mediator.SubOptions{QueueLen: 1}); err != nil {
		t.Fatal(err)
	}
	drop := mk(ctxtype.TemperatureCelsius, dropSrc, 3)
	if err := rng.PublishAll(drop[:1]); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := rng.PublishAll(drop[1:]); err != nil {
		t.Fatal(err)
	}

	// One quota reject: four events against a burst of three.
	quotaSrc := guid.New(guid.KindDevice)
	if err := rng.PublishAll(mk(ctxtype.PrinterStatus, quotaSrc, 4)); err != nil {
		t.Fatal(err)
	}

	// One shed: a throttled coalescer reporting into the Range's flow
	// stats buffers 64 × MaxBatch events and sheds the oldest past that.
	shedSrc := guid.New(guid.KindDevice)
	c := flow.New(flow.Config{Clock: clk, MaxBatch: 1, MaxDelay: time.Millisecond,
		Send: func([]event.Event) {}, Stats: rng.FlowStats()})
	defer c.Discard()
	c.UpdateCredit(0, 100)
	c.UpdateCredit(1, 0)
	if c.Penalty() <= 1 {
		t.Fatal("coalescer not throttled")
	}
	c.AddAll(mk(ctxtype.TemperatureCelsius, shedSrc, 65))

	stats := rng.StatsMap()
	origin := map[string]guid.GUID{
		"eventbus.dropped":         dropSrc,
		"eventbus.quota.rejected":  quotaSrc,
		"remote.backpressure.shed": shedSrc,
	}
	for _, k := range lossFamilyKeys {
		if stats[k] != 1 {
			t.Errorf("%s = %v, want 1", k, stats[k])
		}
		if got := stats[k+".from."+origin[k].Short()]; got != 1 {
			t.Errorf("%s.from.%s = %v, want 1", k, origin[k].Short(), got)
		}
		var sum float64
		for key, v := range stats {
			rest, ok := strings.CutPrefix(key, k+".")
			if !ok {
				continue
			}
			short, ok := strings.CutPrefix(rest, "from.")
			if !ok || short != "other" && !originSuffix.MatchString(short) {
				t.Errorf("loss key %q is not %s, %s.from.<short GUID> or %s.from.other", key, k, k, k)
				continue
			}
			sum += v
		}
		if sum != stats[k] {
			t.Errorf("%s.from.* sum to %v, %s = %v", k, sum, k, stats[k])
		}
	}
	for key := range stats {
		if strings.Contains(key, "by_source") || strings.Contains(key, ".from.") && !hasFamilyPrefix(key) {
			t.Errorf("per-origin key %q belongs to no loss family", key)
		}
	}
}

func hasFamilyPrefix(key string) bool {
	for _, k := range lossFamilyKeys {
		if strings.HasPrefix(key, k+".from.") {
			return true
		}
	}
	return false
}
