package server

import (
	"sync/atomic"
	"testing"

	"sci/internal/configuration"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/query"
	"sci/internal/sensor"
)

// TestSubscribePrimesPrinter: a subscription to a printer delivers the
// printer's current status at once, through the Range's primer index,
// without waiting for a change of state; the Range's doors, which are no
// Primers, are skipped.
func TestSubscribePrimesPrinter(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	p1 := sensor.NewPrinter("P1", location.AtPlace("corr"), w.clk)
	if err := w.rng.AddEntity(p1); err != nil {
		t.Fatal(err)
	}
	var statuses atomic.Int64
	caa := entity.NewCAA("watcher", func(e event.Event) {
		if e.Type == ctxtype.PrinterStatus && e.Source == p1.ID() {
			statuses.Add(1)
		}
	}, w.clk)
	if err := w.rng.AddApplication(caa); err != nil {
		t.Fatal(err)
	}

	ids := []guid.GUID{w.doors["d-lobby"].ID(), guid.New(guid.KindDevice), p1.ID()}
	guid.Sort(ids)
	if got := w.rng.Primers(ids, nil); len(got) != 1 || got[0] != configuration.Primer(p1) {
		t.Fatalf("Primers(%v) = %v, want the printer", ids, got)
	}

	q := query.New(caa.ID(), query.What{Entity: p1.ID()}, query.ModeSubscribe)
	if _, err := w.rng.Submit(q); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return statuses.Load() == 1 })
	pos := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	if _, err := w.rng.Submit(pos); err != nil {
		t.Fatal(err)
	}
	if n := statuses.Load(); n != 1 {
		t.Fatalf("the printer's status arrived %d times, want once", n)
	}
}

// countingPrinter is a printer that counts the times it is primed.
type countingPrinter struct {
	*sensor.Printer
	primes atomic.Int64
}

func (p *countingPrinter) Prime() {
	p.primes.Add(1)
	p.Printer.Prime()
}

// TestPrimerIndexFollowsMembership: the Range primes from an index of its
// Primer components that follows membership. A printer that departed is
// not primed by a later subscribe, and one added after a plan was cached
// is primed once the resolver cache has rolled over.
func TestPrimerIndexFollowsMembership(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	add := func(name string, at location.PlaceID) *countingPrinter {
		t.Helper()
		p := &countingPrinter{Printer: sensor.NewPrinter(name, location.AtPlace(at), w.clk)}
		if err := w.rng.AddEntity(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	subscribe := func(what query.What) {
		t.Helper()
		if _, err := w.rng.Submit(query.New(w.caa.ID(), what, query.ModeSubscribe)); err != nil {
			t.Fatal(err)
		}
	}
	// Priming runs inside Submit, so the counts are final when it returns.
	primed := func(p *countingPrinter, want int64) {
		t.Helper()
		if n := p.primes.Load(); n != want {
			t.Fatalf("%s primed %d times, want %d", p.Profile().Name, n, want)
		}
	}
	p1, p2 := add("P1", "corr"), add("P2", "l10.01")

	// Both sides of the index lookup: more leaves than primers, and fewer.
	leaves := []guid.GUID{p1.ID(), p2.ID()}
	for _, d := range w.doors {
		leaves = append(leaves, d.ID())
	}
	guid.Sort(leaves)
	if got := w.rng.Primers(leaves, nil); len(got) != 2 {
		t.Fatalf("Primers over the doors and both printers = %v, want the 2 printers", got)
	}
	if got := w.rng.Primers([]guid.GUID{p2.ID()}, nil); len(got) != 1 || got[0] != configuration.Primer(p2) {
		t.Fatalf("Primers(P2) = %v, want P2", got)
	}

	subscribe(query.What{Entity: p1.ID()})
	primed(p1, 1)

	// P1 departs: the index forgets it, and the subscription that names P1
	// is torn down, not rebound to P2, so nothing primes P2 yet. A later
	// printer subscribe primes P2 and P1 no more.
	if err := w.rng.RemoveEntity(p1.ID()); err != nil {
		t.Fatal(err)
	}
	rt := w.rng.Runtime()
	waitFor(t, func() bool { return rt.Repairs.Value()+rt.RepairFailures.Value() == 1 })
	if rt.RepairFailures.Value() != 1 {
		t.Fatalf("the subscription naming P1 was repaired (%d), not torn down", rt.Repairs.Value())
	}
	if got := w.rng.Primers(leaves, nil); len(got) != 1 || got[0] != configuration.Primer(p2) {
		t.Fatalf("Primers after P1 departed = %v, want P2 alone", got)
	}
	primed(p2, 0)
	subscribe(query.What{Pattern: ctxtype.PrinterStatus})
	primed(p1, 1)
	primed(p2, 1)

	// A second subscribe is served from the cached plan; a printer added
	// afterwards rolls the cache over and is primed by its first subscribe.
	subscribe(query.What{Pattern: ctxtype.PrinterStatus})
	primed(p2, 2)
	misses := w.rng.StatsMap()["resolver.cache_misses"]
	p3 := add("P3", "l10.02")
	subscribe(query.What{Pattern: ctxtype.PrinterStatus})
	if now := w.rng.StatsMap()["resolver.cache_misses"]; now != misses+1 {
		t.Fatalf("resolver.cache_misses %v after a printer arrived, was %v: the cache did not roll over", now, misses)
	}
	// The fresh plan binds one of the two printers, whichever ranks first.
	if n := p2.primes.Load() + p3.primes.Load(); n != 3 {
		t.Fatalf("P2 and P3 primed %d times together, want 3", n)
	}
	before := p3.primes.Load()
	subscribe(query.What{Entity: p3.ID()})
	primed(p3, before+1)
	primed(p1, 1)
}
