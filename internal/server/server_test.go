package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/sensor"
)

var epoch = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

func testMap(t testing.TB) *location.Map {
	t.Helper()
	places := []location.Place{
		{ID: "lobby", Path: "campus/lt/l10/lobby", Centroid: location.Point{Frame: "L10", X: 0, Y: 0}},
		{ID: "corr", Path: "campus/lt/l10/corr", Centroid: location.Point{Frame: "L10", X: 10, Y: 0}},
		{ID: "l10.01", Path: "campus/lt/l10/l10.01", Centroid: location.Point{Frame: "L10", X: 20, Y: 0}},
		{ID: "l10.02", Path: "campus/lt/l10/l10.02", Centroid: location.Point{Frame: "L10", X: 30, Y: 0}},
	}
	links := []location.Link{
		{A: "lobby", B: "corr", Door: "d-lobby"},
		{A: "corr", B: "l10.01", Door: "d-1001"},
		{A: "corr", B: "l10.02", Door: "d-1002"},
	}
	m, err := location.NewMap(places, links)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// world is a Range with door sensors, an objLocation CE and a CAA.
type world struct {
	rng   *Range
	clk   *clock.Manual
	doors map[string]*sensor.DoorSensor
	obj   *entity.ObjLocationCE
	caa   *entity.CAA
}

func newWorld(t testing.TB) *world {
	t.Helper()
	clk := clock.NewManual(epoch)
	m := testMap(t)
	rng := New(Config{
		Name:     "level-10",
		Clock:    clk,
		Places:   m,
		Coverage: "campus/lt/l10",
		// Tests advance the manual clock across lease periods; keep local
		// components alive unless a test silences them explicitly.
		AutoRenewEvery: 5 * time.Second,
	})
	w := &world{rng: rng, clk: clk, doors: map[string]*sensor.DoorSensor{}}
	for _, d := range []struct {
		door  string
		place location.PlaceID
	}{{"d-lobby", "lobby"}, {"d-1001", "l10.01"}, {"d-1002", "l10.02"}} {
		ds := sensor.NewDoorSensor(d.door, location.AtPlace(d.place), clk)
		w.doors[d.door] = ds
		if err := rng.AddEntity(ds); err != nil {
			t.Fatal(err)
		}
	}
	w.obj = entity.NewObjLocationCE(m, clk)
	if err := rng.AddEntity(w.obj); err != nil {
		t.Fatal(err)
	}
	w.caa = entity.NewCAA("test-app", nil, clk)
	if err := rng.AddApplication(w.caa); err != nil {
		t.Fatal(err)
	}
	return w
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestAddEntityRegistersEverything(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	ds := w.doors["d-1001"]
	if !w.rng.Registrar().IsLive(ds.ID()) {
		t.Fatal("not registered")
	}
	if _, err := w.rng.Profiles().Get(ds.ID()); err != nil {
		t.Fatal("profile not stored")
	}
	if _, ok := w.rng.Component(ds.ID()); !ok {
		t.Fatal("component not tracked")
	}
	if !ds.Attached() {
		t.Fatal("not attached to mediator")
	}
}

func TestSubscribeQueryEndToEnd(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferred || res.Configuration.IsNil() {
		t.Fatalf("result = %+v", res)
	}
	// Trigger the bound door; a position event must reach the CAA.
	bob := guid.New(guid.KindPerson)
	for _, ds := range w.doors {
		if err := ds.Sight(bob, "l10.01"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return w.caa.PendingEvents() >= 1 })
	evs := w.caa.TakeEvents()
	if evs[0].Type != ctxtype.LocationPosition || evs[0].Subject != bob {
		t.Fatalf("delivered = %+v", evs[0])
	}
}

func TestProfileQueryModes(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()

	// By pattern.
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile)
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("profiles = %d, want 3 doors", len(res.Profiles))
	}
	// By named entity.
	q = query.New(w.caa.ID(), query.What{Entity: w.obj.ID()}, query.ModeProfile)
	res, err = w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 1 || res.Profiles[0].Entity != w.obj.ID() {
		t.Fatal("entity profile wrong")
	}
	// By entity type (kind attribute).
	q = query.New(w.caa.ID(), query.What{EntityType: "door-sensor"}, query.ModeProfile)
	res, err = w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("door-sensor profiles = %d", len(res.Profiles))
	}
	// Unknown entity errors.
	q = query.New(w.caa.ID(), query.What{Entity: guid.New(guid.KindEntity)}, query.ModeProfile)
	if _, err := w.rng.Submit(q); err == nil {
		t.Fatal("unknown entity profile succeeded")
	}
}

func TestAdvertisementModeAndServiceCall(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	p1 := sensor.NewPrinter("P1", location.AtPlace("corr"), w.clk)
	if err := w.rng.AddEntity(p1); err != nil {
		t.Fatal(err)
	}
	q := query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement)
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provider != p1.ID() || res.Advertisement == nil || res.Advertisement.Interface != "printer" {
		t.Fatalf("advertisement result = %+v", res)
	}
	// Call the advertised service point-to-point.
	out, err := w.rng.CallService(res.Provider, "submit", map[string]any{"doc": "paper.pdf"})
	if err != nil {
		t.Fatal(err)
	}
	if out["job"] == "" {
		t.Fatal("no job id")
	}
	if _, err := w.rng.CallService(guid.New(guid.KindDevice), "x", nil); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("unknown provider: %v", err)
	}
}

func TestSubscribeRequiresRegisteredCAA(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	if _, err := w.rng.Submit(q); !errors.Is(err, ErrNoCAA) {
		t.Fatalf("foreign owner: %v", err)
	}
}

func TestDeferredQueryFiresOnTrigger(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	bob := guid.New(guid.KindPerson)

	// CAPA configuration X: execute when Bob enters L10.01.
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.When.Trigger = &event.Filter{
		Type:    ctxtype.LocationSightingDoor,
		Subject: bob,
	}
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deferred {
		t.Fatal("query not deferred")
	}
	if got := w.rng.PendingQueries(); len(got) != 1 || got[0] != q.ID {
		t.Fatalf("pending = %v", got)
	}
	if w.rng.QueriesDeferred.Value() != 1 {
		t.Fatal("deferred counter")
	}

	// Bob walks through the door: the trigger fires, the configuration is
	// built and executes; subsequent sightings now reach the CAA.
	if err := w.doors["d-1001"].Sight(bob, "l10.01"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(w.rng.PendingQueries()) == 0 })
	waitFor(t, func() bool { return w.rng.QueriesExecuted.Value() == 1 })

	// Another sighting flows through the now-live configuration. The
	// resolver bound one specific door, so sight through all of them.
	for _, ds := range w.doors {
		if err := ds.Sight(bob, "lobby"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return w.caa.PendingEvents() >= 1 })
}

func TestDeferredQueryFiresAtInstant(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.When.After = epoch.Add(time.Hour)
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deferred {
		t.Fatal("not deferred")
	}
	w.clk.Advance(time.Hour)
	waitFor(t, func() bool { return w.rng.QueriesExecuted.Value() == 1 })
	if len(w.rng.PendingQueries()) != 0 {
		t.Fatal("still pending after firing")
	}
}

func TestDeferredQueryExpires(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.When.Trigger = &event.Filter{Type: ctxtype.LocationSightingDoor, Subject: guid.New(guid.KindPerson)}
	q.When.Expires = epoch.Add(time.Minute)
	if _, err := w.rng.Submit(q); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(2 * time.Minute)
	waitFor(t, func() bool { return len(w.rng.PendingQueries()) == 0 })
	// The CAA receives a query.error event.
	waitFor(t, func() bool { return w.caa.PendingEvents() >= 1 })
	evs := w.caa.TakeEvents()
	if evs[0].Type != "query.error" {
		t.Fatalf("expected error event, got %+v", evs[0])
	}
}

func TestDepartureRepairsConfiguration(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	// Add a WLAN fallback source.
	bs := sensor.NewBaseStation("lobby", []location.PlaceID{"lobby", "corr"}, location.AtPlace("lobby"), w.clk)
	if err := w.rng.AddEntity(bs); err != nil {
		t.Fatal(err)
	}
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	// Find the bound door and remove ALL doors so the repair must cross the
	// equivalence class to the basestation.
	for name, ds := range w.doors {
		_ = name
		if err := w.rng.RemoveEntity(ds.ID()); err != nil {
			t.Fatal(err)
		}
	}
	sts := w.rng.Runtime().Active()
	if len(sts) != 1 {
		t.Fatalf("active = %d", len(sts))
	}
	foundWLAN := false
	for _, p := range sts[0].Providers {
		if p == bs.ID() {
			foundWLAN = true
		}
	}
	if !foundWLAN {
		t.Fatalf("configuration %v not rebound to basestation", sts[0])
	}
	// Context flows from the new source.
	dev := guid.New(guid.KindDevice)
	if err := bs.Observe(dev, "lobby"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return w.caa.PendingEvents() >= 1 })
	_ = res
}

func TestLeaseExpiryTriggersDepartureEvents(t *testing.T) {
	clk := clock.NewManual(epoch)
	rng := New(Config{
		Name:           "r",
		Clock:          clk,
		Lease:          30 * time.Second,
		AutoRenewEvery: 10 * time.Second,
	})
	defer rng.Close()
	ds := sensor.NewDoorSensor("d1", location.Ref{}, clk)
	if err := rng.AddEntity(ds); err != nil {
		t.Fatal(err)
	}
	caa := entity.NewCAA("app", nil, clk)
	if err := rng.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	// Lifecycle events have no provider CE, so subscribe directly through
	// the mediator rather than via a resolved configuration.
	if _, err := rng.Mediator().Subscribe(caa.ID(),
		event.Filter{Type: ctxtype.EntityDeparture}, caa.Consume,
		mediator.SubOptions{}); err != nil {
		t.Fatal(err)
	}

	// Auto-renew keeps the sensor alive across many lease periods.
	clk.Advance(2 * time.Minute)
	if !rng.Registrar().IsLive(ds.ID()) {
		t.Fatal("auto-renew failed")
	}
	// Silence it: the lease must lapse.
	rng.StopRenewing(ds.ID())
	clk.Advance(time.Minute)
	if rng.Registrar().IsLive(ds.ID()) {
		t.Fatal("silenced sensor still live")
	}
	waitFor(t, func() bool {
		for _, e := range caa.TakeEvents() {
			if e.Type == ctxtype.EntityDeparture && e.Subject == ds.ID() {
				return true
			}
		}
		return false
	})
}

func TestRemoveEntityValidation(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	if err := w.rng.RemoveEntity(guid.New(guid.KindEntity)); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("remove unknown: %v", err)
	}
}

func TestProfileUpdateRefreshesAttributes(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	p1 := sensor.NewPrinter("P1", location.AtPlace("corr"), w.clk)
	if err := w.rng.AddEntity(p1); err != nil {
		t.Fatal(err)
	}
	// Queue a job: the printer emits profile.update; the Range must refresh
	// the stored attributes so constraint queries see status=busy.
	if _, err := p1.Submit("doc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		p, err := w.rng.Profiles().Get(p1.ID())
		return err == nil && p.Attributes["status"] == "busy"
	})
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	w := newWorld(t)
	w.rng.Close()
	w.rng.Close()
	if err := w.rng.AddEntity(sensor.NewDoorSensor("d", location.Ref{}, w.clk)); !errors.Is(err, ErrClosed) {
		t.Fatalf("add after close: %v", err)
	}
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	if _, err := w.rng.Submit(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestWhichClosestPrinterScenario(t *testing.T) {
	// Mini-CAPA: two printers; the CAA sits in l10.01; closest wins.
	w := newWorld(t)
	defer w.rng.Close()
	near := sensor.NewPrinter("P-near", location.AtPlace("corr"), w.clk)
	far := sensor.NewPrinter("P-far", location.AtPlace("lobby"), w.clk)
	for _, p := range []*sensor.Printer{near, far} {
		if err := w.rng.AddEntity(p); err != nil {
			t.Fatal(err)
		}
	}
	// Give the CAA a location by re-storing its profile with one.
	prof := w.caa.Profile()
	prof.Location = location.AtPlace("l10.01")
	if err := w.rng.Profiles().Put(prof); err != nil {
		t.Fatal(err)
	}
	q := query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement)
	q.Which.Criterion = query.CriterionClosest
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provider != near.ID() {
		t.Fatalf("closest printer = %s, want P-near", res.Provider.Short())
	}
}

// TestSubmitAnswersShareStore: Submit answers with the Profile Manager's
// frozen records themselves. Every profile and advertisement answer is the
// pointer Lookup returns, and once every answer path has run and its
// answers have been read in full, the store holds what it held before.
func TestSubmitAnswersShareStore(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	for _, name := range []string{"P1", "P2"} {
		if err := w.rng.AddEntity(sensor.NewPrinter(name, location.AtPlace("corr"), w.clk)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.rng.Profiles().All()
	lookup := func(id guid.GUID) *profile.Profile {
		t.Helper()
		p, err := w.rng.Profiles().Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	read := func(res *Result) {
		t.Helper()
		if _, err := json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	for _, what := range []query.What{
		{Pattern: ctxtype.LocationSightingDoor},
		{Pattern: ctxtype.LocationSighting},
		{Pattern: ctxtype.PrinterStatus},
		{EntityType: "printer"},
		{EntityType: "door-sensor"},
		{Entity: w.obj.ID()},
	} {
		res, err := w.rng.Submit(query.New(w.caa.ID(), what, query.ModeProfile))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Profiles) == 0 {
			t.Fatalf("profile query %+v answered nothing", what)
		}
		for _, p := range res.Profiles {
			if p != lookup(p.Entity) {
				t.Fatalf("profile query %+v answered a copy of %s, not the stored profile", what, p.Name)
			}
		}
		read(res)
	}
	res, err := w.rng.Submit(query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement))
	if err != nil {
		t.Fatal(err)
	}
	if res.Advertisement == nil || res.Advertisement != lookup(res.Provider).Advertisement {
		t.Fatalf("advertisement answer %p is not the stored advertisement of %s", res.Advertisement, res.Provider.Short())
	}
	read(res)
	res, err = w.rng.Submit(query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe))
	if err != nil {
		t.Fatal(err)
	}
	read(res)
	if err := w.rng.Runtime().Teardown(res.Configuration); err != nil {
		t.Fatal(err)
	}
	if after := w.rng.Profiles().All(); !reflect.DeepEqual(after, before) {
		t.Fatalf("stored profiles changed by answering queries:\n got %+v\nwant %+v", after, before)
	}
}

// TestSubmitProfileAllocs: a pattern profile query shares the stored
// profiles, so its allocations do not grow with the number of profiles it
// answers.
func TestSubmitProfileAllocs(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeProfile)
	printers := 0
	allocs := func(n int) float64 {
		t.Helper()
		for ; printers < n; printers++ {
			p := sensor.NewPrinter(fmt.Sprintf("P%d", printers), location.AtPlace("corr"), w.clk)
			if err := w.rng.AddEntity(p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := w.rng.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Profiles) != n {
			t.Fatalf("profile query answered %d printers, want %d", len(res.Profiles), n)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := w.rng.Submit(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(3), allocs(30)
	if few != many || many > 3 {
		t.Fatalf("a pattern profile query makes %v allocations answering 3 profiles and %v answering 30; want the same, at most 3", few, many)
	}
}

// TestOwnerDepartureTearsDownConfigurations: a CAA that subscribed and then
// departed leaves no configuration behind, and the mediator holds what it
// held before the subscribe, whether the CAA deregistered or its lease
// lapsed.
func TestOwnerDepartureTearsDownConfigurations(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	base := w.rng.Mediator().Len()
	for _, lapse := range []bool{false, true} {
		caa := entity.NewCAA("short-lived", nil, w.clk)
		if err := w.rng.AddApplication(caa); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []query.Mode{query.ModeSubscribe, query.ModeOnce} {
			q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, mode)
			if _, err := w.rng.Submit(q); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(w.rng.Runtime().Active()); n != 2 {
			t.Fatalf("%d configurations active after two subscribes, want 2", n)
		}
		if lapse {
			w.rng.StopRenewing(caa.ID())
			w.clk.Advance(2 * w.rng.Registrar().Lease())
			if w.rng.Registrar().IsLive(caa.ID()) {
				t.Fatal("the silenced CAA's lease never lapsed")
			}
		} else if err := w.rng.RemoveEntity(caa.ID()); err != nil {
			t.Fatal(err)
		}
		if sts := w.rng.Runtime().Active(); len(sts) != 0 {
			t.Fatalf("lapse=%v: %d configurations outlive their departed owner: %+v", lapse, len(sts), sts)
		}
		if n := w.rng.Mediator().Len(); n != base {
			t.Fatalf("lapse=%v: Mediator().Len() = %d after the owner departed, want %d", lapse, n, base)
		}
		if n := w.rng.Runtime().RepairFailures.Value(); n != 0 {
			t.Fatalf("an owner's departure counted %d repair failures", n)
		}
	}
}

// TestDeferredQueryOfDepartedOwnerDropped: a deferred query goes with its
// owner. Its trigger subscription is cancelled and its timer stopped, so
// its instant passing afterwards executes nothing.
func TestDeferredQueryOfDepartedOwnerDropped(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	base := w.rng.Mediator().Len()
	bob := guid.New(guid.KindPerson)
	q := query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.When.After = epoch.Add(time.Hour)
	q.When.Trigger = &event.Filter{Type: ctxtype.LocationSightingDoor, Subject: bob}
	if res, err := w.rng.Submit(q); err != nil || !res.Deferred {
		t.Fatalf("Submit = %+v, %v; want a deferred query", res, err)
	}
	if err := w.rng.RemoveEntity(w.caa.ID()); err != nil {
		t.Fatal(err)
	}
	if got := w.rng.PendingQueries(); len(got) != 0 {
		t.Fatalf("pending after the owner departed = %v", got)
	}
	if n := w.rng.Mediator().Len(); n != base {
		t.Fatalf("Mediator().Len() = %d after the owner departed, want %d", n, base)
	}
	// The manual clock runs a due timer inside Advance, so the instant has
	// passed, and any execution it caused has happened, when it returns.
	w.clk.Advance(time.Hour)
	if n := w.rng.QueriesExecuted.Value(); n != 0 {
		t.Fatalf("QueriesExecuted = %d after the owner departed, want 0", n)
	}
	if n := len(w.rng.Runtime().Active()); n != 0 {
		t.Fatalf("%d configurations active for a departed owner", n)
	}
	if n := w.rng.Mediator().Len(); n != base {
		t.Fatalf("Mediator().Len() = %d, want %d", n, base)
	}
}

// TestSubmitRacingOwnerDeparture: a subscribe racing its owner's departure
// leaves no configuration, whichever of the two finishes first.
func TestSubmitRacingOwnerDeparture(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	base := w.rng.Mediator().Len()
	for i := 0; i < 1000; i++ {
		caa := entity.NewCAA("racer", nil, w.clk)
		if err := w.rng.AddApplication(caa); err != nil {
			t.Fatal(err)
		}
		q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = w.rng.Submit(q) // fails once the owner has departed
		}()
		if err := w.rng.RemoveEntity(caa.ID()); err != nil {
			t.Fatal(err)
		}
		<-done
		if sts := w.rng.Runtime().Active(); len(sts) != 0 {
			t.Fatalf("round %d: %d configurations outlive their departed owner", i, len(sts))
		}
	}
	if n := w.rng.Mediator().Len(); n != base {
		t.Fatalf("Mediator().Len() = %d, want %d", n, base)
	}
}
