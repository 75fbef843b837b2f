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
	}
	cfg.Edges = resolver.Flatten(root)
	return cfg
}

// inputRecord returns the configuration's one non-root subscription record.
func inputRecord(t *testing.T, r *rig, cfg *resolver.Configuration) mediator.Record {
	t.Helper()
	recs := r.med.ForConfiguration(cfg.ID)
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
	if err := r.rt.Instantiate(cfg, resolver.Context{}, func(event.Event) {}); err != nil {
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
	if !reflect.DeepEqual(in.Sources, want) {
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
	var producers []guid.GUID
	for _, e := range cfg.Edges {
		producers = append(producers, e.Producer)
	}
	guid.Sort(producers)
	if slices.Contains(in.Sources, gone.ID()) || (len(producers) > 1 && !reflect.DeepEqual(in.Sources, producers)) {
		t.Fatalf("sources after repair = %v, edges' producers %v", in.Sources, producers)
	}
	n := len(rec.events())
	if err := bound[0].sight(subject, "y"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.events()) > n })
}

// TestProviderIndexEntryGoesOnDeparture: a provider's index entry survives
// the teardown of the last configuration using it (so re-binding it costs
// no allocation), and goes when the provider departs, whether its
// configurations were repaired or torn down.
func TestProviderIndexEntryGoesOnDeparture(t *testing.T) {
	r := newRig(t)
	defer r.close()
	entries := func() int {
		r.rt.mu.Lock()
		defer r.rt.mu.Unlock()
		return len(r.rt.byProv)
	}
	cfg, err := r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	providers := cfg.Providers() // objLoc and both doors
	if err := r.rt.Instantiate(cfg, resolver.Context{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Teardown(cfg.ID); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != len(providers) {
		t.Fatalf("entries after teardown = %d, want %d", n, len(providers))
	}
	for _, p := range providers {
		if r.rt.Uses(p) {
			t.Fatalf("Uses(%s) after teardown", p.Short())
		}
	}
	// An unused provider departs: its entry goes.
	r.profiles.Remove(r.doors[0].ID())
	if n := r.rt.HandleDeparture(r.doors[0].ID()); n != 0 {
		t.Fatalf("departure of an unused provider repaired %d", n)
	}
	if n := entries(); n != len(providers)-1 {
		t.Fatalf("entries after departure = %d, want %d", n, len(providers)-1)
	}

	// The remaining door, bound again, departs, and its configuration is
	// repaired onto the WLAN station: its entry goes.
	cfg, err = r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Instantiate(cfg, resolver.Context{}, nil); err != nil {
		t.Fatal(err)
	}
	r.profiles.Remove(r.doors[1].ID())
	if n := r.rt.HandleDeparture(r.doors[1].ID()); n != 1 {
		t.Fatalf("HandleDeparture repaired %d, want 1", n)
	}
	r.rt.mu.Lock()
	_, kept := r.rt.byProv[r.doors[1].ID()]
	r.rt.mu.Unlock()
	if kept {
		t.Fatal("the departed provider's entry survived its repair")
	}

	// A bound provider departs and repair fails, so the configuration is
	// torn down: the entry still goes.
	r.profiles.Remove(r.wlan.ID())
	if n := r.rt.HandleDeparture(r.wlan.ID()); n != 0 {
		t.Fatalf("HandleDeparture repaired %d, want 0", n)
	}
	r.rt.mu.Lock()
	_, kept = r.rt.byProv[r.wlan.ID()]
	r.rt.mu.Unlock()
	if kept || len(r.rt.Active()) != 0 {
		t.Fatal("the departed provider's entry survived a failed repair")
	}
	// Only the object-location CE, which never departed, keeps an entry.
	if n := entries(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

// TestInstantiateCostIndependentOfFanIn: the plumbing of a configuration
// is O(inputs), not O(edges). Instantiate + Teardown of a position
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
		if len(cfg.Edges) != doors {
			t.Fatalf("%d doors resolved to %d edges", doors, len(cfg.Edges))
		}
		if err := r.rt.Instantiate(cfg, resolver.Context{}, func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
		if n := r.med.Len(); n != 2 {
			t.Fatalf("%d doors: Mediator.Len() = %d, want 2", doors, n)
		}
		if err := r.rt.Teardown(cfg.ID); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if err := r.rt.Instantiate(cfg, resolver.Context{}, func(event.Event) {}); err != nil {
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
		t.Fatalf("Instantiate + Teardown allocates %v times over 8 doors and %v over 64: the plumbing grows with the edges", small, large)
	}
}
