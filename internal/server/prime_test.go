package server

import (
	"sync/atomic"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/query"
	"sci/internal/sensor"
)

// TestSubscribePrimesPrinter: a subscription to a printer delivers the
// printer's current status at once, through the Range's batch component
// lookup, without waiting for a change of state; the Range's doors, which
// are no Primers, are looked up and skipped.
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
	if got := w.rng.Components(ids, nil); len(got) != 2 || got[0].ID() != ids[0] || got[1].ID() != p1.ID() {
		t.Fatalf("Components(%v) = %v, want the door and the printer", ids, got)
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
