package server_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sci/internal/configuration"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/server"
)

// TestMembersSnapshotFollowsChanges: Submit, Component and Primers read a
// snapshot of the Range's members, and each change shows in the very next
// read, the snapshot having been read before the change: an application
// added subscribes at once, one that departed gets ErrNoCAA on its next
// subscribe, a component added is found at once, and after Close, Submit
// returns ErrClosed.
func TestMembersSnapshotFollowsChanges(t *testing.T) {
	b := newBuilding(t)
	defer b.rng.Close()
	subscribe := func(owner guid.GUID) error {
		t.Helper()
		res, err := b.rng.Submit(query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe))
		if err == nil {
			if err := b.rng.Runtime().Teardown(res.Configuration); err != nil {
				t.Fatal(err)
			}
		}
		return err
	}
	if err := subscribe(b.caa.ID()); err != nil {
		t.Fatal(err)
	}

	caa := entity.NewCAA("newcomer", func(event.Event) {}, nil)
	if err := b.rng.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	if err := subscribe(caa.ID()); err != nil {
		t.Fatalf("subscribe right after AddApplication: %v", err)
	}
	if err := b.rng.RemoveEntity(caa.ID()); err != nil {
		t.Fatal(err)
	}
	if err := subscribe(caa.ID()); !errors.Is(err, server.ErrNoCAA) {
		t.Fatalf("subscribe of a departed application = %v, want ErrNoCAA", err)
	}

	printer := sensor.NewPrinter("late", location.AtPlace("f0.r01"), nil)
	if _, ok := b.rng.Component(printer.ID()); ok {
		t.Fatal("a component is found before it is added")
	}
	if err := b.rng.AddEntity(printer); err != nil {
		t.Fatal(err)
	}
	if ce, ok := b.rng.Component(printer.ID()); !ok || ce != entity.CE(printer) {
		t.Fatalf("Component right after AddEntity = %v, %v", ce, ok)
	}
	if got := b.rng.Primers([]guid.GUID{printer.ID()}, nil); len(got) != 1 || got[0] != configuration.Primer(printer) {
		t.Fatalf("Primers right after AddEntity = %v, want the printer", got)
	}
	if err := b.rng.RemoveEntity(printer.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.rng.Component(printer.ID()); ok {
		t.Fatal("a departed component is still found")
	}
	if got := b.rng.Primers([]guid.GUID{printer.ID()}, nil); len(got) != 0 {
		t.Fatalf("Primers after the printer departed = %v", got)
	}

	b.rng.Close()
	if _, err := b.rng.Submit(query.New(b.caa.ID(), query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile)); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestMembersSnapshotRace: components arriving and departing, applications
// arriving and departing, and queries, all at once. A query fails only by
// its owner's departure; run with -race.
func TestMembersSnapshotRace(t *testing.T) {
	b := newBuilding(t)
	defer b.rng.Close()
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // components
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ce := sensor.NewDoorSensor(fmt.Sprintf("extra-%d", i), location.AtPlace("f0.r01"), nil)
			if err := b.rng.AddEntity(ce); err != nil {
				t.Error(err)
				return
			}
			if err := b.rng.RemoveEntity(ce.ID()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // applications, each subscribing once before it departs
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			caa := entity.NewCAA("passer-by", func(event.Event) {}, nil)
			if err := b.rng.AddApplication(caa); err != nil {
				t.Error(err)
				return
			}
			q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
			if _, err := b.rng.Submit(q); err != nil {
				t.Error(err)
				return
			}
			if err := b.rng.RemoveEntity(caa.ID()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the resident application's queries
		defer wg.Done()
		owner := b.caa.ID()
		qs := []query.Query{
			query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile),
			query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement),
			query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe),
		}
		for i := 0; i < 3*rounds; i++ {
			res, err := b.rng.Submit(qs[i%len(qs)])
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Configuration.IsNil() {
				if err := b.rng.Runtime().Teardown(res.Configuration); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if sts := b.rng.Runtime().Active(); len(sts) != 0 {
		t.Fatalf("%d configurations outlive their queries and owners", len(sts))
	}
}

// TestHotpathMembersZeroAlloc: once the member snapshot is built, reading
// it, Component and Primers allocate nothing.
func TestHotpathMembersZeroAlloc(t *testing.T) {
	b := newBuilding(t)
	defer b.rng.Close()
	printer := sensor.NewPrinter("P", location.AtPlace("f0.r01"), nil)
	if err := b.rng.AddEntity(printer); err != nil {
		t.Fatal(err)
	}
	leaves := []guid.GUID{printer.ID()}
	buf := make([]configuration.Primer, 0, 1)
	b.rng.Component(printer.ID())
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := b.rng.Component(printer.ID()); !ok {
			t.Fatal("printer not found")
		}
		if got := b.rng.Primers(leaves, buf[:0]); len(got) != 1 {
			t.Fatalf("Primers = %v", got)
		}
	}); allocs != 0 {
		t.Fatalf("Component and Primers make %v allocations, want 0", allocs)
	}
}

// BenchmarkHotpathSubmitParallel runs the warm query cycle of
// TestWarmQueryAllocs (a profile query, an advertisement, a location
// subscribe and teardown, a temperature subscribe and teardown) from every
// processor at once against one Range: its ns/op at -cpu 1 and 2 shows what
// a second core buys the query path.
func BenchmarkHotpathSubmitParallel(b *testing.B) {
	bld := newBuilding(b)
	defer bld.rng.Close()
	owner := bld.caa.ID()
	advert := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	advert.Which = query.Which{Criterion: query.CriterionClosest, Constraints: map[string]string{"status": string(sensor.PrinterIdle)}}
	temperature := query.New(owner, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	temperature.Where = query.Where{Implicit: query.ImplicitSameFloor}
	cycle := []query.Query{
		query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile),
		advert,
		query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe),
		temperature,
	}
	submit := func(q query.Query) error {
		res, err := bld.rng.Submit(q)
		if err == nil && !res.Configuration.IsNil() {
			err = bld.rng.Runtime().Teardown(res.Configuration)
		}
		return err
	}
	for _, q := range cycle {
		if err := submit(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if err := submit(cycle[i%len(cycle)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
