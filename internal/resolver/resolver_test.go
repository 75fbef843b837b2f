package resolver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
)

// world builds the Section 3.2 scenario: door sensors (sources), an
// objLocation CE (sightings → positions), and a path CE (two positions →
// path.route).
type world struct {
	profiles *profile.Manager
	types    *ctxtype.Registry
	res      *Resolver

	doors  []guid.GUID
	objLoc guid.GUID
	pathCE guid.GUID
}

func newWorld(t testing.TB) *world {
	t.Helper()
	w := &world{
		profiles: &profile.Manager{},
		types:    ctxtype.NewRegistry(),
	}
	for i := 0; i < 3; i++ {
		id := guid.New(guid.KindDevice)
		w.doors = append(w.doors, id)
		mustPut(t, w.profiles, profile.Profile{
			Entity:  id,
			Name:    fmt.Sprintf("door-%d", i),
			Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor},
			Quality: 0.9,
		})
	}
	w.objLoc = guid.New(guid.KindEntity)
	mustPut(t, w.profiles, profile.Profile{
		Entity:  w.objLoc,
		Name:    "objLocationCE",
		Inputs:  []ctxtype.Type{ctxtype.LocationSighting},
		Outputs: []ctxtype.Type{ctxtype.LocationPosition},
	})
	w.pathCE = guid.New(guid.KindEntity)
	mustPut(t, w.profiles, profile.Profile{
		Entity:  w.pathCE,
		Name:    "pathCE",
		Inputs:  []ctxtype.Type{ctxtype.LocationPosition, ctxtype.LocationPosition},
		Outputs: []ctxtype.Type{ctxtype.PathRoute},
	})
	w.res = New(w.profiles, w.types, nil)
	return w
}

func mustPut(t testing.TB, m *profile.Manager, p profile.Profile) {
	t.Helper()
	if err := m.Put(p); err != nil {
		t.Fatal(err)
	}
}

func pathQuery(t testing.TB) query.Query {
	t.Helper()
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PathRoute}, query.ModeSubscribe)
	return q
}

func TestSection32PathConfiguration(t *testing.T) {
	w := newWorld(t)
	cfg, err := w.res.Resolve(pathQuery(t), Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != w.pathCE {
		t.Fatalf("root = %s, want pathCE", cfg.Root.Provider.Short())
	}
	// pathCE has two position inputs, each bound to objLocationCE, which in
	// turn feeds from a door sensor.
	if len(cfg.Root.Inputs) != 2 {
		t.Fatalf("root inputs = %d", len(cfg.Root.Inputs))
	}
	for _, in := range cfg.Root.Inputs {
		if in.Provider != w.objLoc {
			t.Fatalf("position provider = %s, want objLocationCE", in.Provider.Short())
		}
		// Fig 3: the objLocationCE subscribes to ALL door sensors (fan-in).
		if len(in.Inputs) != 3 {
			t.Fatalf("objLoc inputs = %d, want all 3 doors", len(in.Inputs))
		}
		for _, leaf := range in.Inputs {
			if leaf.Output != ctxtype.LocationSightingDoor {
				t.Fatalf("leaf output = %s", leaf.Output)
			}
			if len(leaf.Inputs) != 0 {
				t.Fatal("door sensor must be a source (no inputs)")
			}
		}
	}
	if d := cfg.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
	// The graph grounds out at sensor level: every leaf is a source.
	assertGroundsOut(t, w.profiles, cfg.Root)
	// Plan: pathCE's position input fed by objLoc (deduped) and objLoc's
	// door input fed by 3 doors.
	if in := cfg.Plan.Inputs; len(in) != 2 || in[0].Producers.Len()+in[1].Producers.Len() != 4 {
		t.Fatalf("plan inputs = %v", in)
	}
}

func assertGroundsOut(t *testing.T, m *profile.Manager, b *Binding) {
	t.Helper()
	p, err := m.Get(b.Provider)
	if err != nil {
		t.Fatal(err)
	}
	// Fan-in may bind several sources per declared input, never fewer.
	if len(b.Inputs) < len(p.Inputs) {
		t.Fatalf("binding for %s has %d inputs, profile wants at least %d", p.Name, len(b.Inputs), len(p.Inputs))
	}
	if len(b.Inputs) == 0 && !p.IsSource() && len(p.Outputs) == 0 {
		t.Fatalf("leaf %s is not a source", p.Name)
	}
	for _, in := range b.Inputs {
		assertGroundsOut(t, m, in)
	}
}

func TestNoProvider(t *testing.T) {
	w := newWorld(t)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.TemperatureCelsius}, query.ModeSubscribe)
	if _, err := w.res.Resolve(q, Context{}); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("want ErrNoProvider, got %v", err)
	}
}

func TestUnsatisfiableInputChain(t *testing.T) {
	w := newWorld(t)
	// A CE producing printer.status but needing a type nobody provides.
	mustPut(t, w.profiles, profile.Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "broken",
		Inputs:  []ctxtype.Type{"nonexistent.input"},
		Outputs: []ctxtype.Type{ctxtype.PrinterStatus},
	})
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	if _, err := w.res.Resolve(q, Context{}); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("want ErrNoProvider, got %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	if err := types.Register("t.a"); err != nil {
		t.Fatal(err)
	}
	if err := types.Register("t.b"); err != nil {
		t.Fatal(err)
	}
	a, b := guid.New(guid.KindEntity), guid.New(guid.KindEntity)
	mustPut(t, profiles, profile.Profile{
		Entity: a, Name: "a", Inputs: []ctxtype.Type{"t.b"}, Outputs: []ctxtype.Type{"t.a"},
	})
	mustPut(t, profiles, profile.Profile{
		Entity: b, Name: "b", Inputs: []ctxtype.Type{"t.a"}, Outputs: []ctxtype.Type{"t.b"},
	})
	res := New(profiles, types, nil)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: "t.a"}, query.ModeSubscribe)
	_, err := res.Resolve(q, Context{})
	if err == nil {
		t.Fatal("cyclic profiles resolved")
	}
}

func TestSemanticRebindDoorToWLAN(t *testing.T) {
	w := newWorld(t)
	// Add a WLAN sighting source with lower quality.
	wlan := guid.New(guid.KindDevice)
	mustPut(t, w.profiles, profile.Profile{
		Entity:  wlan,
		Name:    "basestation",
		Outputs: []ctxtype.Type{ctxtype.LocationSightingWLAN},
		Quality: 0.6,
	})
	q := pathQuery(t)

	// Normal resolution prefers door sensors (higher quality, same score
	// for the ancestor type location.sighting).
	cfg, err := w.res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range cfg.Root.Inputs[0].Inputs {
		if leaf.Output != ctxtype.LocationSightingDoor {
			t.Fatalf("preferred leaf = %s, want door", leaf.Output)
		}
	}

	// Kill all door sensors: the resolver must rebind to the WLAN source
	// (experiment E9 / iQueue critique).
	exclude := guid.NewSet(w.doors...)
	cfg, err = w.res.Resolve(q, Context{Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	rebound := cfg.Root.Inputs[0].Inputs[0]
	if rebound.Provider != wlan || rebound.Output != ctxtype.LocationSightingWLAN {
		t.Fatalf("rebound leaf = %+v, want wlan basestation", rebound)
	}
}

func TestResolveReplacement(t *testing.T) {
	w := newWorld(t)
	q := pathQuery(t)
	cfg, err := w.res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	failed := cfg.Root.Inputs[0].Inputs[0].Provider
	rep, err := w.res.ResolveReplacement(q, ctxtype.LocationSighting, failed, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provider == failed {
		t.Fatal("replacement chose the failed provider")
	}
}

func TestLiveOnlyFilter(t *testing.T) {
	w := newWorld(t)
	dead := guid.NewSet(w.doors[0], w.doors[1])
	ctx := Context{LiveOnly: func(g guid.GUID) bool { return !dead.Has(g) }}
	cfg, err := w.res.Resolve(pathQuery(t), ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cfg.Providers() {
		if dead.Has(p) {
			t.Fatal("configuration includes dead provider")
		}
	}
}

func TestWhichConstraintsFilter(t *testing.T) {
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	busy := guid.New(guid.KindDevice)
	idle := guid.New(guid.KindDevice)
	mustPut(t, profiles, profile.Profile{
		Entity: busy, Name: "p-busy",
		Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
		Attributes: map[string]string{"status": "busy"},
	})
	mustPut(t, profiles, profile.Profile{
		Entity: idle, Name: "p-idle",
		Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
		Attributes: map[string]string{"status": "idle"},
	})
	res := New(profiles, types, nil)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	q.Which.Constraints = map[string]string{"status": "idle"}
	cfg, err := res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != idle {
		t.Fatal("constraint did not filter busy printer")
	}
	// Impossible constraint.
	q.Which.Constraints["status"] = "on-fire"
	if _, err := res.Resolve(q, Context{}); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("impossible constraint: %v", err)
	}
}

func TestWhichShortestQueue(t *testing.T) {
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	long := guid.New(guid.KindDevice)
	short := guid.New(guid.KindDevice)
	mustPut(t, profiles, profile.Profile{
		Entity: long, Name: "p-long",
		Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
		Attributes: map[string]string{"queue": "7"},
	})
	mustPut(t, profiles, profile.Profile{
		Entity: short, Name: "p-short",
		Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
		Attributes: map[string]string{"queue": "1"},
	})
	res := New(profiles, types, nil)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	q.Which.Criterion = query.CriterionShortestQueue
	cfg, err := res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != short {
		t.Fatal("shortest-queue did not pick the short queue")
	}
}

func TestWhichClosestWithMap(t *testing.T) {
	places := []location.Place{
		{ID: "r1", Path: "b/f/r1", Centroid: location.Point{Frame: "F", X: 0, Y: 0}},
		{ID: "r2", Path: "b/f/r2", Centroid: location.Point{Frame: "F", X: 10, Y: 0}},
		{ID: "r3", Path: "b/f/r3", Centroid: location.Point{Frame: "F", X: 20, Y: 0}},
	}
	links := []location.Link{{A: "r1", B: "r2"}, {A: "r2", B: "r3"}}
	lmap, err := location.NewMap(places, links)
	if err != nil {
		t.Fatal(err)
	}
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	near := guid.New(guid.KindDevice)
	far := guid.New(guid.KindDevice)
	mustPut(t, profiles, profile.Profile{
		Entity: near, Name: "p-near",
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: location.AtPlace("r2"),
	})
	mustPut(t, profiles, profile.Profile{
		Entity: far, Name: "p-far",
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: location.AtPlace("r3"),
	})
	res := New(profiles, types, lmap)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	q.Which.Criterion = query.CriterionClosest
	cfg, err := res.Resolve(q, Context{OwnerLocation: location.AtPlace("r1")})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != near {
		t.Fatal("closest criterion did not pick nearest printer")
	}
	// Implicit where=closest-to-me behaves the same.
	q.Which.Criterion = ""
	q.Where.Implicit = query.ImplicitClosest
	cfg, err = res.Resolve(q, Context{OwnerLocation: location.AtPlace("r1")})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != near {
		t.Fatal("closest-to-me did not pick nearest printer")
	}
}

func TestWhereExplicitScoping(t *testing.T) {
	places := []location.Place{
		{ID: "r1", Path: "b/f1/r1", Centroid: location.Point{Frame: "F1", X: 0, Y: 0}},
		{ID: "r2", Path: "b/f2/r2", Centroid: location.Point{Frame: "F2", X: 0, Y: 0}},
	}
	lmap, err := location.NewMap(places, nil)
	if err != nil {
		t.Fatal(err)
	}
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	inRoom := guid.New(guid.KindDevice)
	elsewhere := guid.New(guid.KindDevice)
	mustPut(t, profiles, profile.Profile{
		Entity: inRoom, Name: "in-room",
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: location.AtPlace("r1"),
	})
	mustPut(t, profiles, profile.Profile{
		Entity: elsewhere, Name: "elsewhere",
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: location.AtPlace("r2"),
	})
	res := New(profiles, types, lmap)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPlace("r1")
	cfg, err := res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != inRoom {
		t.Fatal("explicit where did not scope to room")
	}
	// Area (ancestor path) scoping: floor f2 contains only "elsewhere".
	q.Where.Explicit = location.AtPath("b/f2")
	cfg, err = res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != elsewhere {
		t.Fatal("area where did not scope to floor")
	}
}

func TestBindEntityAndEntityType(t *testing.T) {
	w := newWorld(t)
	// Named entity.
	q := query.New(guid.New(guid.KindApplication), query.What{Entity: w.pathCE}, query.ModeProfile)
	cfg, err := w.res.Resolve(q, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != w.pathCE || len(cfg.Plan.Inputs) != 0 {
		t.Fatal("entity binding wrong")
	}
	// Unknown entity.
	q.What.Entity = guid.New(guid.KindEntity)
	if _, err := w.res.Resolve(q, Context{}); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("unknown entity: %v", err)
	}
	// Entity type via advertisement.
	printer := guid.New(guid.KindDevice)
	mustPut(t, w.profiles, profile.Profile{
		Entity: printer, Name: "p1",
		Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
		Advertisement: &profile.Advertisement{Interface: "printer", Operations: []string{"submit"}},
	})
	q2 := query.New(guid.New(guid.KindApplication), query.What{EntityType: "printer"}, query.ModeAdvertisement)
	cfg, err = w.res.Resolve(q2, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != printer {
		t.Fatal("entity-type binding wrong")
	}
	// Entity type via kind attribute.
	display := guid.New(guid.KindDevice)
	mustPut(t, w.profiles, profile.Profile{
		Entity: display, Name: "d1",
		Outputs:    []ctxtype.Type{ctxtype.ProfileUpdate},
		Attributes: map[string]string{"kind": "display"},
	})
	q3 := query.New(guid.New(guid.KindApplication), query.What{EntityType: "display"}, query.ModeAdvertisement)
	cfg, err = w.res.Resolve(q3, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Root.Provider != display {
		t.Fatal("kind-attribute binding wrong")
	}
}

func TestSubgraphReuseCache(t *testing.T) {
	w := newWorld(t)
	q := pathQuery(t)
	if _, err := w.res.Resolve(q, Context{}); err != nil {
		t.Fatal(err)
	}
	h0, m0 := w.res.CacheStats()
	// A second identical resolution is served whole from the cache.
	if _, err := w.res.Resolve(q, Context{}); err != nil {
		t.Fatal(err)
	}
	h1, _ := w.res.CacheStats()
	if h1 <= h0 {
		t.Fatalf("no cache reuse: hits %d → %d (misses start %d)", h0, h1, m0)
	}
	// A profile mutation invalidates the cache.
	mustPut(t, w.profiles, profile.Profile{
		Entity:  guid.New(guid.KindDevice),
		Name:    "new-door",
		Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor},
	})
	if _, err := w.res.Resolve(q, Context{}); err != nil {
		t.Fatal(err)
	}
	_, m2 := w.res.CacheStats()
	if m2 <= m0 {
		t.Fatal("cache not invalidated by profile change")
	}
}

func TestProvidersAndDepthHelpers(t *testing.T) {
	w := newWorld(t)
	cfg, err := w.res.Resolve(pathQuery(t), Context{})
	if err != nil {
		t.Fatal(err)
	}
	provs := cfg.Providers()
	if len(provs) != 5 { // pathCE, objLoc, three doors (fan-in)
		t.Fatalf("providers = %d: %v", len(provs), provs)
	}
	for i := 1; i < len(provs); i++ {
		if !guid.Less(provs[i-1], provs[i]) {
			t.Fatal("Providers not sorted")
		}
	}
}

func BenchmarkResolvePathQuery(b *testing.B) {
	w := newWorld(b)
	q := pathQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.res.Resolve(q, Context{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlattenOrdersEdgesByInput: Flatten sorts the edges by (Consumer,
// Type, Producer), so each consumer input is one run of adjacent edges
// whatever order the graph lists its bindings in, and an edge reached twice
// through a shared sub-graph appears once. NewPlan makes each run one
// input and lists a leaf reached twice once; a lone binding is its own
// leaf.
func TestFlattenOrdersEdgesByInput(t *testing.T) {
	ids := make([]guid.GUID, 6)
	for i := range ids {
		ids[i] = guid.New(guid.KindDevice)
	}
	guid.Sort(ids)
	leaf := func(p guid.GUID, out ctxtype.Type) *Binding { return &Binding{Provider: p, Output: out} }
	// ids[1] consumes door sightings from ids[4], ids[3] and ids[5] and a
	// W-LAN sighting from ids[2]; ids[0], the root, consumes ids[1] twice
	// over the same sub-graph.
	mid := &Binding{Provider: ids[1], Output: ctxtype.LocationPosition, Inputs: []*Binding{
		leaf(ids[4], ctxtype.LocationSightingDoor),
		leaf(ids[2], ctxtype.LocationSightingWLAN),
		leaf(ids[3], ctxtype.LocationSightingDoor),
		leaf(ids[5], ctxtype.LocationSightingDoor),
	}}
	root := &Binding{Provider: ids[0], Output: ctxtype.PathRoute, Inputs: []*Binding{mid, mid}}
	want := []Edge{
		{Consumer: ids[0], Producer: ids[1], Type: ctxtype.LocationPosition},
		{Consumer: ids[1], Producer: ids[3], Type: ctxtype.LocationSightingDoor},
		{Consumer: ids[1], Producer: ids[4], Type: ctxtype.LocationSightingDoor},
		{Consumer: ids[1], Producer: ids[5], Type: ctxtype.LocationSightingDoor},
		{Consumer: ids[1], Producer: ids[2], Type: ctxtype.LocationSightingWLAN},
	}
	if got := Flatten(root); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v\nwant      %v", got, want)
	}
	if got := Flatten(leaf(ids[0], ctxtype.PathRoute)); got != nil {
		t.Fatalf("Flatten of a lone binding = %v, want nil", got)
	}

	plan := &Plan{
		Inputs: []Input{
			{Consumer: ids[0], Type: ctxtype.LocationPosition, Producers: guid.NewSorted(ids[1])},
			{Consumer: ids[1], Type: ctxtype.LocationSightingDoor, Producers: guid.NewSorted(ids[3], ids[4], ids[5])},
			{Consumer: ids[1], Type: ctxtype.LocationSightingWLAN, Producers: guid.NewSorted(ids[2])},
		},
		Leaves: []guid.GUID{ids[2], ids[3], ids[4], ids[5]},
	}
	if got := NewPlan(root); !reflect.DeepEqual(got, plan) {
		t.Fatalf("NewPlan = %+v\nwant      %+v", got, plan)
	}
	lone := &Plan{Leaves: []guid.GUID{ids[0]}}
	if got := NewPlan(leaf(ids[0], ctxtype.PathRoute)); !reflect.DeepEqual(got, lone) {
		t.Fatalf("NewPlan of a lone binding = %+v, want %+v", got, lone)
	}
}
