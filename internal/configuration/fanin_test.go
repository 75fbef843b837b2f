package configuration

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
)

// recorderCE is a consumer CE that records every input event it is handed.
type recorderCE struct {
	*entity.Base
	mu  sync.Mutex
	got []event.Event
}

func newRecorderCE(r *rig) *recorderCE {
	c := &recorderCE{}
	c.Base = entity.NewBase(guid.KindSoftware, profile.Profile{
		Name:    "recorder",
		Inputs:  []ctxtype.Type{ctxtype.LocationSightingDoor},
		Outputs: []ctxtype.Type{ctxtype.LocationPosition},
	}, r.clk)
	return c
}

func (c *recorderCE) HandleInput(e event.Event) {
	c.mu.Lock()
	c.got = append(c.got, e)
	c.mu.Unlock()
}

func (c *recorderCE) events() []event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.got)
}

// fanInConfiguration builds recorder ← doors as one input fed by every
// given door.
func fanInConfiguration(owner guid.GUID, consumer guid.GUID, doors []*sensorCE) *resolver.Configuration {
	root := &resolver.Binding{
		Provider: consumer,
		Want:     ctxtype.LocationPosition,
		Output:   ctxtype.LocationPosition,
	}
	for _, d := range doors {
		root.Inputs = append(root.Inputs, &resolver.Binding{
			Provider: d.ID(),
			Want:     ctxtype.LocationSightingDoor,
			Output:   ctxtype.LocationSightingDoor,
		})
	}
	cfg := &resolver.Configuration{
		ID:    guid.New(guid.KindConfiguration),
		Query: query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe),
		Root:  root,
		Plan:  resolver.NewPlan(root),
	}
	return cfg
}

// subscriptions returns the ids of the subscriptions the runtime wired for
// configuration id.
func (r *Runtime) subscriptions(id guid.GUID) []guid.GUID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ac := r.active[id]; ac != nil {
		return slices.Clone(ac.subs)
	}
	return nil
}

// inputRecord returns the configuration's one non-root subscription record.
func inputRecord(t *testing.T, r *rig, cfg *resolver.Configuration) mediator.Record {
	t.Helper()
	var recs []mediator.Record
	for _, id := range r.rt.subscriptions(cfg.ID) {
		if rec, ok := r.med.Get(id); ok {
			recs = append(recs, rec)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("configuration has %d subscriptions, want 2 (one input + root): %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.Owner != cfg.Query.Owner {
			return rec
		}
	}
	t.Fatalf("no input subscription among %+v", recs)
	return mediator.Record{}
}

// TestFanInIsOneSubscription: three bound doors feed one consumer input
// through a single subscription whose source set names them; a fourth,
// registered but unbound door's events are never enqueued; a bound door's
// departure still repairs the configuration.
func TestFanInIsOneSubscription(t *testing.T) {
	r := newRigDoors(t, 4)
	defer r.close()
	rec := newRecorderCE(r)
	r.add(t, rec)
	bound, unbound := r.doors[:3], r.doors[3]

	cfg := fanInConfiguration(guid.New(guid.KindApplication), rec.ID(), bound)
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	if n := r.rt.Active()[0].Subscriptions; n != 2 {
		t.Fatalf("Status.Subscriptions = %d, want 2", n)
	}
	in := inputRecord(t, r, cfg)
	want := []guid.GUID{bound[0].ID(), bound[1].ID(), bound[2].ID()}
	guid.Sort(want)
	if in.Owner != rec.ID() || in.Filter.Type != ctxtype.LocationSightingDoor || !in.Filter.Source.IsNil() {
		t.Fatalf("input record = %+v", in)
	}
	if !slices.Equal(in.Sources.Members(), want) {
		t.Fatalf("input sources = %v, want %v", in.Sources, want)
	}

	// Interleave the bound doors' sightings, with one from the unbound door
	// in the middle of the stream.
	subject := guid.New(guid.KindPerson)
	const rounds = 20
	before := r.med.Stats().Delivered
	for i := 0; i < rounds; i++ {
		for _, d := range bound {
			if err := d.sight(subject, "x"); err != nil {
				t.Fatal(err)
			}
		}
		if i == rounds/2 {
			if err := unbound.sight(subject, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool { return r.med.Stats().Delivered-before >= uint64(rounds*len(bound)) })
	got := rec.events()
	if len(got) != rounds*len(bound) {
		t.Fatalf("consumer got %d events, want %d", len(got), rounds*len(bound))
	}
	last := map[guid.GUID]uint64{}
	for _, e := range got {
		if e.Source == unbound.ID() {
			t.Fatal("the unbound door's sighting reached the consumer")
		}
		if prev, ok := last[e.Source]; ok && e.Seq <= prev {
			t.Fatalf("producer %s out of order: seq %d after %d", e.Source.Short(), e.Seq, prev)
		}
		last[e.Source] = e.Seq
	}
	if len(last) != len(bound) {
		t.Fatalf("events from %d producers, want %d", len(last), len(bound))
	}
	// Nothing else subscribes on this mediator and the recorder emits no
	// root output, so every delivery is one of the input's: the unbound
	// door's sighting was never enqueued anywhere.
	if d := r.med.Stats().Delivered - before; d != uint64(rounds*len(bound)) {
		t.Fatalf("bus delivered %d events, want %d", d, rounds*len(bound))
	}

	// A bound door departs: the configuration is repaired, keeps one
	// subscription for the input, and its source set drops the door.
	gone := bound[1]
	r.profiles.Remove(gone.ID())
	if n := r.rt.HandleDeparture(gone.ID()); n != 1 {
		t.Fatalf("HandleDeparture repaired %d, want 1", n)
	}
	sts := r.rt.Active()
	if len(sts) != 1 || sts[0].Repairs != 1 || sts[0].Subscriptions != 2 {
		t.Fatalf("status after repair = %+v", sts)
	}
	if slices.Contains(sts[0].Providers, gone.ID()) {
		t.Fatal("departed door still bound")
	}
	in = inputRecord(t, r, cfg)
	producers := cfg.Plan.Inputs[0].Producers
	if in.Sources.Has(gone.ID()) || (producers.Len() > 1 && !reflect.DeepEqual(in.Sources, producers)) {
		t.Fatalf("sources after repair = %v, plan's producers %v", in.Sources, producers)
	}
	n := len(rec.events())
	if err := bound[0].sight(subject, "y"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.events()) > n })
}

// TestDepartureRepairsOrTearsDown: one scan of the live configurations
// handles a departure. A provider no configuration binds repairs nothing; a
// bound one is rebound; a bound one with no replacement tears its
// configuration down as a repair failure; and a departed querying
// application takes its configurations with it, without a repair failure.
// Every step leaves the mediator holding exactly the live configurations'
// subscriptions.
func TestDepartureRepairsOrTearsDown(t *testing.T) {
	r := newRig(t)
	defer r.close()
	instantiate := func(owner guid.GUID) *resolver.Configuration {
		t.Helper()
		cfg, err := r.res.Resolve(positionQuery(owner), resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// live checks the active configurations and that the mediator holds
	// two subscriptions (one input, one root) for each.
	live := func(want ...*resolver.Configuration) {
		t.Helper()
		sts := r.rt.Active()
		if len(sts) != len(want) {
			t.Fatalf("%d configurations active, want %d", len(sts), len(want))
		}
		for _, cfg := range want {
			if !slices.ContainsFunc(sts, func(st Status) bool { return st.ID == cfg.ID }) {
				t.Fatalf("configuration %s not active", cfg.ID.Short())
			}
		}
		if n := r.med.Len(); n != 2*len(want) {
			t.Fatalf("Mediator.Len() = %d, want %d", n, 2*len(want))
		}
	}

	// A provider the only configuration does not bind departs: nothing is
	// repaired. Only door 0 outputs sightings once door 1's profile goes,
	// so the configuration binds door 0 and the WLAN station stays unbound.
	r.profiles.Remove(r.doors[1].ID())
	kept := instantiate(guid.New(guid.KindApplication))
	if n := r.rt.HandleDeparture(r.doors[1].ID()); n != 0 {
		t.Fatalf("departure of an unbound provider repaired %d", n)
	}
	live(kept)

	// Door 0 departs: the configuration is rebound to the WLAN station.
	r.profiles.Remove(r.doors[0].ID())
	if n := r.rt.HandleDeparture(r.doors[0].ID()); n != 1 {
		t.Fatalf("HandleDeparture repaired %d, want 1", n)
	}
	live(kept)

	// The querying application of a second configuration departs: that
	// configuration goes, and no repair failure is counted.
	owner := guid.New(guid.KindApplication)
	live(kept, instantiate(owner))
	if n := r.rt.HandleDeparture(owner); n != 0 {
		t.Fatalf("an owner's departure repaired %d", n)
	}
	live(kept)
	if n := r.rt.RepairFailures.Value(); n != 0 {
		t.Fatalf("RepairFailures = %d after an owner's departure, want 0", n)
	}

	// The WLAN station departs with no replacement left: the configuration
	// is torn down as a repair failure.
	r.profiles.Remove(r.wlan.ID())
	if n := r.rt.HandleDeparture(r.wlan.ID()); n != 0 {
		t.Fatalf("HandleDeparture repaired %d, want 0", n)
	}
	live()
	if n := r.rt.RepairFailures.Value(); n != 1 {
		t.Fatalf("RepairFailures = %d, want 1", n)
	}
}

// TestInstantiateCostIndependentOfFanIn: the plumbing of a configuration
// is O(inputs), not O(producers). Instantiate + Teardown of a position
// configuration allocates the same number of times over 8 doors as over 64,
// and the 64-door configuration holds exactly two subscriptions.
func TestInstantiateCostIndependentOfFanIn(t *testing.T) {
	allocs := func(doors int) float64 {
		r := newRigDoors(t, doors)
		defer r.close()
		cfg, err := r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		if in := cfg.Plan.Inputs; len(in) != 1 || in[0].Producers.Len() != doors {
			t.Fatalf("%d doors resolved to inputs %v", doors, in)
		}
		if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
			t.Fatal(err)
		}
		if n := r.med.Len(); n != 2 {
			t.Fatalf("%d doors: Mediator.Len() = %d, want 2", doors, n)
		}
		if err := r.rt.Teardown(cfg.ID); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
				t.Fatal(err)
			}
			if err := r.rt.Teardown(cfg.ID); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(64)
	t.Logf("allocations per Instantiate + Teardown: %v (8 doors), %v (64 doors)", small, large)
	if small != large {
		t.Fatalf("Instantiate + Teardown allocates %v times over 8 doors and %v over 64: the plumbing grows with the producers", small, large)
	}
}
