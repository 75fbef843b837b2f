package configuration

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
)

var epoch = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

// rig assembles a full local pipeline: sensor CEs → interpreter CE → CAA,
// with mediator, resolver and runtime.
type rig struct {
	med      *mediator.Mediator
	profiles *profile.Manager
	types    *ctxtype.Registry
	res      *resolver.Resolver
	rt       *Runtime
	clk      *clock.Manual

	comps map[guid.GUID]entity.CE

	doors  []*sensorCE
	wlan   *sensorCE
	objLoc *entity.ObjLocationCE
}

// sensorCE is a minimal source CE emitting sightings on demand.
type sensorCE struct {
	*entity.Base
}

func newSensorCE(name string, out ctxtype.Type, quality float64, clk *clock.Manual) *sensorCE {
	s := &sensorCE{}
	s.Base = entity.NewBase(guid.KindDevice, profile.Profile{
		Name:    name,
		Outputs: []ctxtype.Type{out},
		Quality: quality,
	}, clk)
	return s
}

func (s *sensorCE) sight(subject guid.GUID, place string) error {
	return s.Emit(s.Profile().Outputs[0], subject, map[string]any{"place": place})
}

func newRig(t testing.TB) *rig { return newRigDoors(t, 2) }

// newRigDoors is newRig with the given number of door sensors.
func newRigDoors(t testing.TB, doors int) *rig {
	t.Helper()
	r := &rig{
		profiles: &profile.Manager{},
		types:    ctxtype.NewRegistry(),
		clk:      clock.NewManual(epoch),
		comps:    make(map[guid.GUID]entity.CE),
	}
	r.med = mediator.New(r.types)
	r.res = resolver.New(r.profiles, r.types, nil)
	r.rt = New(r.med, r.res, ComponentsFunc(func(g guid.GUID) (entity.CE, bool) {
		ce, ok := r.comps[g]
		return ce, ok
	}), 4)

	for i := 0; i < doors; i++ {
		d := newSensorCE(fmt.Sprintf("door-%d", i), ctxtype.LocationSightingDoor, 0.9, r.clk)
		r.doors = append(r.doors, d)
		r.add(t, d)
	}
	r.wlan = newSensorCE("basestation", ctxtype.LocationSightingWLAN, 0.6, r.clk)
	r.add(t, r.wlan)
	r.objLoc = entity.NewObjLocationCE(nil, r.clk)
	r.add(t, r.objLoc)
	return r
}

// add attaches ce to the rig's mediator, makes it a local component and
// registers its profile.
func (r *rig) add(t testing.TB, ce entity.CE) {
	t.Helper()
	ce.Attach(r.med)
	r.comps[ce.ID()] = ce
	if err := r.profiles.Put(ce.Profile()); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) close() {
	r.med.Close()
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

func positionQuery(owner guid.GUID) query.Query {
	return query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
}

func TestInstantiateDeliversEndToEnd(t *testing.T) {
	r := newRig(t)
	defer r.close()
	owner := guid.New(guid.KindApplication)
	q := positionQuery(owner)
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []event.Event
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func(evs []event.Event) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// A door sighting flows: door → objLoc → CAA as location.position.
	bob := guid.New(guid.KindPerson)
	boundDoor := cfg.Root.Inputs[0].Provider
	var src *sensorCE
	for _, d := range r.doors {
		if d.ID() == boundDoor {
			src = d
		}
	}
	if src == nil {
		t.Fatalf("bound provider %s is not a door", boundDoor.Short())
	}
	if err := src.sight(bob, "l10.01"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	e := got[0]
	mu.Unlock()
	if e.Type != ctxtype.LocationPosition || e.Subject != bob {
		t.Fatalf("delivered = %+v", e)
	}
	// Status bookkeeping.
	sts := r.rt.Active()
	if len(sts) != 1 || sts[0].ID != cfg.ID || sts[0].Repairs != 0 {
		t.Fatalf("status = %+v", sts)
	}
	if sts[0].Subscriptions != 2 { // objLoc's one input (both doors) + root
		t.Fatalf("subscriptions = %d", sts[0].Subscriptions)
	}
	if !slices.Contains(sts[0].Providers, boundDoor) {
		t.Fatalf("providers %v lack the bound door", sts[0].Providers)
	}
}

func TestInstantiateValidation(t *testing.T) {
	r := newRig(t)
	defer r.close()
	if err := r.rt.InstantiateBatch(nil, resolver.Context{}, nil); err == nil {
		t.Fatal("nil configuration accepted")
	}
	// Configuration with a non-local consumer fails and cleans up.
	q := positionQuery(guid.New(guid.KindApplication))
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	delete(r.comps, r.objLoc.ID())
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, nil); err == nil {
		t.Fatal("missing consumer accepted")
	}
	if r.med.Len() != 0 {
		t.Fatal("failed instantiate leaked subscriptions")
	}
}

func TestTeardown(t *testing.T) {
	r := newRig(t)
	defer r.close()
	q := positionQuery(guid.New(guid.KindApplication))
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Teardown(cfg.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Teardown(cfg.ID); !errors.Is(err, ErrUnknownConfiguration) {
		t.Fatalf("double teardown: %v", err)
	}
	if r.med.Len() != 0 {
		t.Fatal("teardown leaked subscriptions")
	}
	if len(r.rt.Active()) != 0 {
		t.Fatal("still active")
	}
}

func TestRepairRebindsToEquivalentProvider(t *testing.T) {
	r := newRig(t)
	defer r.close()
	owner := guid.New(guid.KindApplication)
	q := positionQuery(owner)
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []event.Event
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func(evs []event.Event) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// Kill BOTH door sensors: remove their profiles, then report failure of
	// the bound one. The repair must rebind to the semantically equivalent
	// WLAN source.
	bound := cfg.Root.Inputs[0].Provider
	for _, d := range r.doors {
		r.profiles.Remove(d.ID())
	}
	if n := r.rt.HandleDeparture(bound); n != 1 {
		t.Fatalf("HandleDeparture repaired %d", n)
	}
	// The repaired graph must use the WLAN station.
	sts := r.rt.Active()
	if len(sts) != 1 || sts[0].Repairs != 1 {
		t.Fatalf("status = %+v", sts)
	}
	found := false
	for _, p := range sts[0].Providers {
		if p == r.wlan.ID() {
			found = true
		}
		if p == bound {
			t.Fatal("failed provider still bound")
		}
	}
	if !found {
		t.Fatal("wlan not bound after repair")
	}
	// Updated information keeps flowing (the paper's §3.2 promise).
	bob := guid.New(guid.KindPerson)
	if err := r.wlan.sight(bob, "lobby"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	if r.rt.Repairs.Value() != 1 || r.rt.RepairLatency.Count() != 1 {
		t.Fatal("repair metrics not recorded")
	}
}

func TestRepairFailureTearsDown(t *testing.T) {
	r := newRig(t)
	defer r.close()
	q := positionQuery(guid.New(guid.KindApplication))
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	// Remove every sighting source; repair has nothing to rebind to.
	for _, d := range r.doors {
		r.profiles.Remove(d.ID())
	}
	r.profiles.Remove(r.wlan.ID())
	bound := cfg.Root.Inputs[0].Provider
	if n := r.rt.HandleDeparture(bound); n != 0 {
		t.Fatalf("repaired %d, want 0", n)
	}
	if len(r.rt.Active()) != 0 {
		t.Fatal("unrepairable configuration not torn down")
	}
	if r.rt.RepairFailures.Value() != 1 {
		t.Fatal("failure not counted")
	}
	if r.med.Len() != 0 {
		t.Fatal("teardown leaked subscriptions")
	}
}

// TestRepairOfNamedEntityFails: a query that names one printer is not
// rebound to another printer of the same type when the named one departs.
// The configuration is torn down as a failed repair, and the other
// printer's status never reaches the application as the departed one's.
func TestRepairOfNamedEntityFails(t *testing.T) {
	r := newRig(t)
	defer r.close()
	p1 := newSensorCE("P1", ctxtype.PrinterStatus, 0.9, r.clk)
	p2 := newSensorCE("P2", ctxtype.PrinterStatus, 0.9, r.clk)
	r.add(t, p1)
	r.add(t, p2)
	q := query.New(guid.New(guid.KindApplication), query.What{Entity: p1.ID()}, query.ModeSubscribe)
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != p1.ID() {
		t.Fatalf("query naming P1 bound %s", cfg.Root.Provider.Short())
	}
	var mu sync.Mutex
	var got []event.Event
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func(evs []event.Event) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	r.profiles.Remove(p1.ID())
	if err := r.rt.Repair(cfg.ID, p1.ID()); !errors.Is(err, ErrNamedEntityFailed) {
		t.Fatalf("Repair after P1 failed = %v, want ErrNamedEntityFailed", err)
	}
	if n := r.rt.HandleDeparture(p1.ID()); n != 0 {
		t.Fatalf("HandleDeparture repaired %d configurations, want 0: P1 is the entity the query names", n)
	}
	if err := r.rt.Repair(cfg.ID, p1.ID()); !errors.Is(err, ErrUnknownConfiguration) {
		t.Fatalf("Repair after the teardown = %v, want ErrUnknownConfiguration", err)
	}
	if sts := r.rt.Active(); len(sts) != 0 {
		t.Fatalf("configuration still active: %+v", sts)
	}
	if r.rt.RepairFailures.Value() != 1 || r.rt.Repairs.Value() != 0 {
		t.Fatalf("repairs %d, failures %d; want 0 and 1", r.rt.Repairs.Value(), r.rt.RepairFailures.Value())
	}
	if n := r.med.Len(); n != 0 {
		t.Fatalf("%d subscriptions left after the teardown", n)
	}

	// P2's status reaches a probe on the mediator, and not the application:
	// the application has no subscription left that could queue it.
	seen := make(chan struct{}, 1)
	if _, err := r.med.Subscribe(guid.New(guid.KindApplication), event.Filter{Type: ctxtype.PrinterStatus, Source: p2.ID()},
		func(event.Event) { seen <- struct{}{} }, mediator.SubOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p2.sight(guid.New(guid.KindPerson), "print room"); err != nil {
		t.Fatal(err)
	}
	<-seen
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 0 {
		t.Fatalf("the application received %d events after P1 departed, from %s", len(got), got[0].Source.Short())
	}
}

func TestRepairBudgetExhaustion(t *testing.T) {
	r := newRig(t)
	defer r.close()
	// Runtime with budget 1.
	rt := New(r.med, r.res, ComponentsFunc(func(g guid.GUID) (entity.CE, bool) {
		ce, ok := r.comps[g]
		return ce, ok
	}), 1)
	q := positionQuery(guid.New(guid.KindApplication))
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InstantiateBatch(cfg, resolver.Context{}, nil); err != nil {
		t.Fatal(err)
	}
	first := cfg.Root.Inputs[0].Provider
	if err := rt.Repair(cfg.ID, first); err != nil {
		t.Fatal(err)
	}
	second := cfg.Root.Inputs[0].Provider
	if err := rt.Repair(cfg.ID, second); !errors.Is(err, ErrRepairBudget) {
		t.Fatalf("budget not enforced: %v", err)
	}
}

func TestRepairUnknownConfiguration(t *testing.T) {
	r := newRig(t)
	defer r.close()
	err := r.rt.Repair(guid.New(guid.KindConfiguration), guid.New(guid.KindDevice))
	if !errors.Is(err, ErrUnknownConfiguration) {
		t.Fatalf("unknown configuration: %v", err)
	}
	if n := r.rt.HandleDeparture(guid.New(guid.KindDevice)); n != 0 {
		t.Fatal("departure of unused provider repaired something")
	}
}

func TestOneShotModeDeliversOnce(t *testing.T) {
	r := newRig(t)
	defer r.close()
	owner := guid.New(guid.KindApplication)
	q := query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeOnce)
	cfg, err := r.res.Resolve(q, resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func(evs []event.Event) {
		mu.Lock()
		count += len(evs)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	bound := cfg.Root.Inputs[0].Provider
	var src *sensorCE
	for _, d := range r.doors {
		if d.ID() == bound {
			src = d
		}
	}
	bob := guid.New(guid.KindPerson)
	for i := 0; i < 3; i++ {
		if err := src.sight(bob, "l10.01"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= 1
	})
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("one-shot delivered %d times", count)
	}
}

// batchCE is an edge consumer that absorbs whole event runs
// (entity.BatchInput); the runtime must wire it through SubscribeBatch.
type batchCE struct {
	*entity.Base
	mu     sync.Mutex
	events []event.Event
	calls  int
}

func newBatchCE(clk *clock.Manual) *batchCE {
	b := &batchCE{}
	b.Base = entity.NewBase(guid.KindSoftware, profile.Profile{
		Name:   "batch-sink",
		Inputs: []ctxtype.Type{ctxtype.LocationSightingDoor},
	}, clk)
	return b
}

func (b *batchCE) HandleInputAll(events []event.Event) {
	b.mu.Lock()
	b.events = append(b.events, events...)
	b.calls++
	b.mu.Unlock()
	// One aggregated re-emission per run: the root subscription sees a
	// stream whose cardinality equals the number of runs, not events.
	_ = b.Emit(ctxtype.LocationSightingDoor, guid.Nil, map[string]any{"n": len(events)})
}

func (b *batchCE) snapshot() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events), b.calls
}

// TestBatchEdgeAndBatchRootDelivery: a BatchInput consumer receives edge
// events as runs, and InstantiateBatch hands root output runs to the
// application as slices.
func TestBatchEdgeAndBatchRootDelivery(t *testing.T) {
	r := newRig(t)
	defer r.close()
	sink := newBatchCE(r.clk)
	sink.Attach(r.med)
	r.comps[sink.ID()] = sink

	owner := guid.New(guid.KindApplication)
	q := query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeSubscribe)
	cfg := &resolver.Configuration{
		ID:    guid.New(guid.KindConfiguration),
		Query: q,
		Root: &resolver.Binding{
			Provider: sink.ID(),
			Want:     ctxtype.LocationSightingDoor,
			Output:   ctxtype.LocationSightingDoor,
			Inputs: []*resolver.Binding{{
				Provider: r.doors[0].ID(),
				Want:     ctxtype.LocationSightingDoor,
				Output:   ctxtype.LocationSightingDoor,
			}},
		},
	}
	cfg.Plan = resolver.NewPlan(cfg.Root)

	var mu sync.Mutex
	var runs [][]event.Event
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func(events []event.Event) {
		cp := append([]event.Event(nil), events...)
		mu.Lock()
		runs = append(runs, cp)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	subject := guid.New(guid.KindPerson)
	const n = 5
	for i := 0; i < n; i++ {
		if err := r.doors[0].sight(subject, "x"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { got, _ := sink.snapshot(); return got >= n })
	got, calls := sink.snapshot()
	if got != n {
		t.Fatalf("batch edge delivered %d events, want %d", got, n)
	}
	if calls > n {
		t.Fatalf("batch edge used %d calls for %d events", calls, n)
	}
	// Root delivery receives the sink's aggregated re-emissions as slices:
	// one delivered event per edge run.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, run := range runs {
			total += len(run)
		}
		return total >= calls
	})
}

// TestActiveProvidersCachedAndCopied: Active reports the providers of the
// configuration's current graph, which a repair replaces, and each call
// returns its own copy, so writing to one Status cannot reach the runtime.
func TestActiveProvidersCachedAndCopied(t *testing.T) {
	r := newRig(t)
	defer r.close()
	cfg, err := r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	want := cfg.Providers()
	sts := r.rt.Active()
	if len(sts) != 1 || !reflect.DeepEqual(sts[0].Providers, want) {
		t.Fatalf("Active = %+v, want providers %v", sts, want)
	}
	for i := range sts[0].Providers {
		sts[0].Providers[i] = guid.Nil
	}
	if again := r.rt.Active(); !reflect.DeepEqual(again[0].Providers, want) {
		t.Fatalf("a write to one Status reached the runtime: %v, want %v", again[0].Providers, want)
	}

	// Repair onto the WLAN station: the list follows the new graph.
	bound := cfg.Root.Inputs[0].Provider
	for _, d := range r.doors {
		r.profiles.Remove(d.ID())
	}
	if n := r.rt.HandleDeparture(bound); n != 1 {
		t.Fatalf("HandleDeparture repaired %d", n)
	}
	want = cfg.Providers()
	got := r.rt.Active()[0].Providers
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("providers after repair = %v, want %v", got, want)
	}
	if slices.Contains(got, bound) || !slices.Contains(got, r.wlan.ID()) {
		t.Fatalf("providers after repair = %v: want the WLAN station, not %s", got, bound.Short())
	}
}

// TestTeardownDuringRepair: a configuration torn down while a repair is
// wiring its new subscriptions keeps none of them, and the repair reports
// it unknown.
func TestTeardownDuringRepair(t *testing.T) {
	r := newRig(t)
	defer r.close()
	var cfg *resolver.Configuration
	var armed bool // read and written on this goroutine only
	rt := New(r.med, r.res, ComponentsFunc(func(g guid.GUID) (entity.CE, bool) {
		if armed {
			armed = false
			if err := r.rt.Teardown(cfg.ID); err != nil {
				t.Error(err)
			}
		}
		ce, ok := r.comps[g]
		return ce, ok
	}), 4)
	r.rt = rt
	var err error
	cfg, err = r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	armed = true
	err = rt.Repair(cfg.ID, cfg.Root.Inputs[0].Provider)
	if armed {
		t.Fatal("the repair never looked up a component")
	}
	if n := r.med.Len(); n != 0 {
		t.Fatalf("the mediator holds %d subscriptions after the teardown, want 0", n)
	}
	if !errors.Is(err, ErrUnknownConfiguration) {
		t.Fatalf("Repair of a configuration torn down mid-repair: %v, want ErrUnknownConfiguration", err)
	}
	if len(rt.Active()) != 0 {
		t.Fatal("configuration still active")
	}
}
