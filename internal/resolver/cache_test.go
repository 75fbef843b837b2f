package resolver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/registry"
	"sci/internal/resolver"
	"sci/internal/sim"
)

func put(t testing.TB, m *profile.Manager, p profile.Profile) guid.GUID {
	t.Helper()
	if p.Entity.IsNil() {
		p.Entity = guid.New(guid.KindDevice)
	}
	if err := m.Put(p); err != nil {
		t.Fatal(err)
	}
	return p.Entity
}

// putLocator stores the objLocation operator: sightings in, positions out.
func putLocator(t testing.TB, m *profile.Manager) guid.GUID {
	return put(t, m, profile.Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "objLocationCE",
		Inputs:  []ctxtype.Type{ctxtype.LocationSighting},
		Outputs: []ctxtype.Type{ctxtype.LocationPosition},
	})
}

// TestResolveCacheKeysWhere: the same position query scoped first to the
// east wing and then to the west wing must bind each wing's own door. A
// cache keyed without the query's Where serves the east door to the west
// query.
func TestResolveCacheKeysWhere(t *testing.T) {
	lmap, err := location.NewMap([]location.Place{
		{ID: "e1", Path: "bldg/east/e1", Centroid: location.Point{Frame: "B", X: 0, Y: 0}},
		{ID: "w1", Path: "bldg/west/w1", Centroid: location.Point{Frame: "B", X: 50, Y: 0}},
	}, []location.Link{{A: "e1", B: "w1"}})
	if err != nil {
		t.Fatal(err)
	}
	profiles := &profile.Manager{}
	east := put(t, profiles, profile.Profile{Name: "door-east", Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor}, Location: location.AtPlace("e1")})
	west := put(t, profiles, profile.Profile{Name: "door-west", Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor}, Location: location.AtPlace("w1")})
	putLocator(t, profiles)
	put(t, profiles, profile.Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "pathCE",
		Inputs:  []ctxtype.Type{ctxtype.LocationPosition, ctxtype.LocationPosition},
		Outputs: []ctxtype.Type{ctxtype.PathRoute},
	})
	res := resolver.New(profiles, ctxtype.NewRegistry(), lmap)

	for _, c := range []struct {
		area        location.Path
		want, other guid.GUID
	}{{"bldg/east", east, west}, {"bldg/west", west, east}, {"bldg/east", east, west}} {
		q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PathRoute}, query.ModeSubscribe)
		q.Where.Explicit = location.AtPath(c.area)
		cfg, err := res.Resolve(q, resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		provs := guid.NewSet(cfg.Providers()...)
		if !provs.Has(c.want) || provs.Has(c.other) {
			t.Fatalf("query scoped to %s bound %v; want its own door %s and not %s",
				c.area, cfg.Providers(), c.want.Short(), c.other.Short())
		}
	}
}

// TestResolveCacheFollowsQuality: quality breaks the tie between a door and
// a W-LAN sighting provider, so a SetQuality that flips it must flip the
// binding of a query resolved before.
func TestResolveCacheFollowsQuality(t *testing.T) {
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	door := put(t, profiles, profile.Profile{Name: "door", Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor}})
	wlan := put(t, profiles, profile.Profile{Name: "wlan", Outputs: []ctxtype.Type{ctxtype.LocationSightingWLAN}})
	putLocator(t, profiles)
	res := resolver.New(profiles, types, nil)
	q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)

	sources := func() []guid.GUID {
		t.Helper()
		cfg, err := res.Resolve(q, resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		var out []guid.GUID
		for _, in := range cfg.Root.Inputs {
			out = append(out, in.Provider)
		}
		return out
	}
	if got := sources(); !reflect.DeepEqual(got, []guid.GUID{door}) {
		t.Fatalf("sources = %v, want the door alone (quality 0.9 beats 0.6)", got)
	}
	if got := sources(); !reflect.DeepEqual(got, []guid.GUID{door}) {
		t.Fatalf("repeat: sources = %v, want the door alone", got)
	}
	if hits, _ := res.CacheStats(); hits == 0 {
		t.Fatal("the repeated resolution was not served from the cache")
	}
	types.SetQuality(ctxtype.LocationSightingWLAN, 0.95)
	if got := sources(); !reflect.DeepEqual(got, []guid.GUID{wlan}) {
		t.Fatalf("after SetQuality: sources = %v, want the W-LAN sensor alone", got)
	}
}

// TestResolveCacheFollowsLiveness: a provider deregistered from the
// Registrar, with its profile left in the store, must not be bound by the
// next resolution.
func TestResolveCacheFollowsLiveness(t *testing.T) {
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	reg := registry.New(registry.Config{Clock: clk})
	defer reg.Close()
	profiles := &profile.Manager{}
	var printers []guid.GUID
	for i := 0; i < 2; i++ {
		id := put(t, profiles, profile.Profile{
			Name:          fmt.Sprintf("p%d", i),
			Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
			Quality:       0.9 - 0.1*float64(i),
			Advertisement: &profile.Advertisement{Interface: "printer"},
		})
		if _, err := reg.Register(id, "printer"); err != nil {
			t.Fatal(err)
		}
		printers = append(printers, id)
	}
	res := resolver.New(profiles, ctxtype.NewRegistry(), nil)
	q := query.New(guid.New(guid.KindApplication), query.What{EntityType: "printer"}, query.ModeAdvertisement)
	resolve := func() guid.GUID {
		t.Helper()
		cfg, err := res.Resolve(q, resolver.Context{LiveOnly: reg.IsLive, LiveGen: reg.Generation()})
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Root.Provider
	}
	if got := resolve(); got != printers[0] {
		t.Fatalf("bound %s, want the higher-quality printer %s", got.Short(), printers[0].Short())
	}
	if got := resolve(); got != printers[0] {
		t.Fatalf("repeat bound %s, want %s", got.Short(), printers[0].Short())
	}
	if hits, _ := res.CacheStats(); hits == 0 {
		t.Fatal("the repeated resolution was not served from the cache")
	}
	if err := reg.Deregister(printers[0]); err != nil {
		t.Fatal(err)
	}
	if got := resolve(); got != printers[1] {
		t.Fatalf("after deregistration bound %s, want the live printer %s", got.Short(), printers[1].Short())
	}
}

// cachedAdvert is a resolver over a floor of idle printers, a closest-idle
// printer advertisement query and the context it is resolved in, with the
// resolution already cached.
func cachedAdvert(t *testing.T) (*resolver.Resolver, query.Query, resolver.Context) {
	t.Helper()
	b, err := sim.NewBuilding(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{Clock: clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))})
	t.Cleanup(reg.Close)
	profiles := &profile.Manager{}
	for i, room := range b.Rooms[0] {
		id := put(t, profiles, profile.Profile{
			Name:          fmt.Sprintf("p%d", i),
			Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
			Location:      location.AtPlace(room),
			Attributes:    map[string]string{"kind": "printer", "status": "idle"},
			Advertisement: &profile.Advertisement{Interface: "printer"},
		})
		if _, err := reg.Register(id, "printer"); err != nil {
			t.Fatal(err)
		}
	}
	res := resolver.New(profiles, ctxtype.NewRegistry(), b.Map)
	q := query.New(guid.New(guid.KindApplication), query.What{EntityType: "printer"}, query.ModeAdvertisement)
	q.Which = query.Which{Criterion: query.CriterionClosest, Constraints: map[string]string{"status": "idle"}}
	ctx := resolver.Context{OwnerLocation: location.AtPlace(b.Rooms[1][2]), LiveOnly: reg.IsLive, LiveGen: reg.Generation()}
	if _, err := res.Resolve(q, ctx); err != nil {
		t.Fatal(err)
	}
	return res, q, ctx
}

// TestResolveCacheHitAllocs: a cache hit builds the Configuration and
// nothing else of note.
func TestResolveCacheHitAllocs(t *testing.T) {
	res, q, ctx := cachedAdvert(t)
	h0, _ := res.CacheStats()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := res.Resolve(q, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if h1, _ := res.CacheStats(); h1 <= h0 {
		t.Fatal("the measured resolutions were not cache hits")
	}
	if allocs > 2 {
		t.Fatalf("a cache hit makes %v allocations, want at most 2", allocs)
	}
}

// TestHotpathResolveRootZeroAlloc: a cache hit through ResolveRoot, the
// advertisement path, returns the cached root and allocates nothing.
func TestHotpathResolveRootZeroAlloc(t *testing.T) {
	res, q, ctx := cachedAdvert(t)
	cfg, err := res.Resolve(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := res.CacheStats()
	allocs := testing.AllocsPerRun(100, func() {
		root, err := res.ResolveRoot(q, ctx)
		if err != nil || root != cfg.Root {
			t.Fatalf("ResolveRoot = %p, %v; want the cached root %p", root, err, cfg.Root)
		}
	})
	if h1, _ := res.CacheStats(); h1 <= h0 {
		t.Fatal("the measured resolutions were not cache hits")
	}
	if allocs != 0 {
		t.Fatalf("a ResolveRoot cache hit makes %v allocations, want 0", allocs)
	}
}

// churnWorld is the oracle test's Range in miniature: a profile store, a
// type registry and a registrar on a manual clock, over a two-floor
// building.
type churnWorld struct {
	t        *testing.T
	rng      *rand.Rand
	b        *sim.Building
	rooms    []location.PlaceID
	profiles *profile.Manager
	types    *ctxtype.Registry
	clk      *clock.Manual
	reg      *registry.Registrar
	sources  []guid.GUID // every source ever stored, removed or not
}

// envTypes are the custom types that DeclareEquivalent merges under churn.
var envTypes = []ctxtype.Type{"env.a", "env.b", "env.c", "env.d"}

func (w *churnWorld) room() location.PlaceID { return w.rooms[w.rng.Intn(len(w.rooms))] }

// sourceProfile draws a source of a random kind at a random room.
func (w *churnWorld) sourceProfile(id guid.GUID) profile.Profile {
	p := profile.Profile{Entity: id, Name: "src-" + id.Short(), Location: location.AtPlace(w.room())}
	switch w.rng.Intn(5) {
	case 0:
		p.Outputs = []ctxtype.Type{ctxtype.LocationSightingDoor}
	case 1:
		p.Outputs = []ctxtype.Type{ctxtype.LocationSightingWLAN}
	case 2:
		status := []string{"idle", "busy"}[w.rng.Intn(2)]
		p.Outputs = []ctxtype.Type{ctxtype.PrinterStatus}
		p.Attributes = map[string]string{"kind": "printer", "status": status, "queue": fmt.Sprint(w.rng.Intn(4))}
		p.Advertisement = &profile.Advertisement{Interface: "printer"}
		p.Quality = float64(1+w.rng.Intn(4)) / 4
	case 3:
		p.Outputs = []ctxtype.Type{ctxtype.TemperatureKelvin}
	default:
		p.Outputs = []ctxtype.Type{envTypes[1+w.rng.Intn(len(envTypes)-1)]}
	}
	return p
}

func (w *churnWorld) addSource() {
	p := w.sourceProfile(guid.New(guid.KindDevice))
	put(w.t, w.profiles, p)
	if _, err := w.reg.Register(p.Entity, p.Name); err != nil {
		w.t.Fatal(err)
	}
	w.sources = append(w.sources, p.Entity)
}

func (w *churnWorld) pick() guid.GUID { return w.sources[w.rng.Intn(len(w.sources))] }

// renewAllBut renews every live registration except skip's.
func (w *churnWorld) renewAllBut(skip guid.GUID) {
	for _, r := range w.reg.List() {
		if r.Entity != skip {
			if err := w.reg.Renew(r.Entity); err != nil {
				w.t.Fatal(err)
			}
		}
	}
}

// churn applies one random mutation, or one that must change nothing.
func (w *churnWorld) churn() string {
	switch w.rng.Intn(11) {
	case 0:
		w.addSource()
		return "register"
	case 1:
		_ = w.reg.Deregister(w.pick()) // the profile stays: only liveness moves
		return "deregister"
	case 2:
		id := w.pick()
		_ = w.reg.Deregister(id)
		w.profiles.Remove(id)
		return "depart"
	case 3:
		// Only the victim's lease lapses: everyone else renews half-way.
		victim := w.pick()
		lease := w.reg.Lease()
		w.clk.Advance(lease / 2)
		w.renewAllBut(victim)
		w.clk.Advance(lease/2 + time.Millisecond)
		w.reg.ExpireNow()
		return "expire"
	case 4:
		id := w.pick()
		if _, err := w.profiles.Lookup(id); err == nil {
			put(w.t, w.profiles, w.sourceProfile(id))
		}
		return "re-profile"
	case 5:
		t := []ctxtype.Type{ctxtype.LocationSightingDoor, ctxtype.LocationSightingWLAN}[w.rng.Intn(2)]
		w.types.SetQuality(t, []float64{0.3, 0.6, 0.9, 0.95}[w.rng.Intn(4)])
		return "set-quality"
	case 6:
		a, b := envTypes[w.rng.Intn(len(envTypes))], envTypes[w.rng.Intn(len(envTypes))]
		if err := w.types.DeclareEquivalent(a, b); err != nil {
			w.t.Fatal(err)
		}
		return "declare-equivalent"
	case 7:
		w.renewAllBut(guid.Nil)
		return "renew"
	case 8:
		id := w.pick()
		if w.reg.IsLive(id) {
			if _, err := w.reg.Register(id, "again"); err != nil {
				w.t.Fatal(err)
			}
		}
		return "re-register"
	case 9:
		id := w.pick()
		if _, err := w.profiles.Lookup(id); err == nil && !w.reg.IsLive(id) {
			if _, err := w.reg.Register(id, "back"); err != nil {
				w.t.Fatal(err)
			}
		}
		return "return"
	default:
		return "none"
	}
}

// churnQueries are the queries the oracle test asks after every mutation,
// from owners at random places.
func churnQueries(b *sim.Building, first guid.GUID) []query.Query {
	owner := guid.New(guid.KindApplication)
	mk := func(what query.What, mode query.Mode, where query.Where, which query.Which) query.Query {
		q := query.New(owner, what, mode)
		q.Where, q.Which = where, which
		return q
	}
	idle := map[string]string{"status": "idle"}
	floor := func(f int) query.Where {
		return query.Where{Explicit: location.AtPath(location.Path(fmt.Sprintf("campus/tower/f%d", f)))}
	}
	return []query.Query{
		mk(query.What{Pattern: ctxtype.PathRoute}, query.ModeSubscribe, query.Where{}, query.Which{}),
		mk(query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe, floor(0), query.Which{}),
		mk(query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe, floor(1), query.Which{}),
		mk(query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe, query.Where{Explicit: location.AtPlace(b.Rooms[1][0])}, query.Which{}),
		mk(query.What{Pattern: ctxtype.LocationSighting}, query.ModeSubscribe, query.Where{}, query.Which{}),
		mk(query.What{EntityType: "printer"}, query.ModeAdvertisement, query.Where{}, query.Which{Criterion: query.CriterionClosest, Constraints: idle}),
		mk(query.What{EntityType: "printer"}, query.ModeAdvertisement, query.Where{}, query.Which{Criterion: query.CriterionClosest}),
		mk(query.What{EntityType: "printer"}, query.ModeAdvertisement, query.Where{}, query.Which{Criterion: query.CriterionShortestQueue}),
		mk(query.What{EntityType: "printer"}, query.ModeAdvertisement, query.Where{}, query.Which{Criterion: query.CriterionHighestQuality}),
		mk(query.What{EntityType: "printer"}, query.ModeAdvertisement, query.Where{}, query.Which{}),
		mk(query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe, query.Where{Implicit: query.ImplicitClosest}, query.Which{Constraints: idle}),
		mk(query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe, query.Where{Implicit: query.ImplicitSameFloor}, query.Which{}),
		mk(query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe, query.Where{Implicit: query.ImplicitSameRoom}, query.Which{}),
		mk(query.What{Pattern: "env.a"}, query.ModeSubscribe, query.Where{}, query.Which{}),
		mk(query.What{Entity: first}, query.ModeProfile, query.Where{}, query.Which{}),
	}
}

// TestResolveCacheIsPureMemo: under seeded churn of every store a
// resolution reads (registrations, deregistrations and expiries, re-profiles,
// quality changes, equivalence merges) and owners across rooms and floors,
// every answer of a caching resolver equals the answer of a fresh resolver
// over the same stores.
func TestResolveCacheIsPureMemo(t *testing.T) {
	b, err := sim.NewBuilding(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	w := &churnWorld{
		t:        t,
		rng:      rand.New(rand.NewSource(45)),
		b:        b,
		profiles: &profile.Manager{},
		types:    ctxtype.NewRegistry(),
		clk:      clk,
		reg:      registry.New(registry.Config{Clock: clk, Lease: time.Minute}),
	}
	defer w.reg.Close()
	for _, rooms := range b.Rooms {
		w.rooms = append(w.rooms, rooms...)
	}
	for _, ty := range envTypes {
		if err := w.types.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		w.addSource()
	}
	for _, p := range []profile.Profile{
		{Entity: guid.New(guid.KindEntity), Name: "objLocationCE", Inputs: []ctxtype.Type{ctxtype.LocationSighting}, Outputs: []ctxtype.Type{ctxtype.LocationPosition}},
		{Entity: guid.New(guid.KindEntity), Name: "pathCE", Inputs: []ctxtype.Type{ctxtype.LocationPosition, ctxtype.LocationPosition}, Outputs: []ctxtype.Type{ctxtype.PathRoute}},
	} {
		put(t, w.profiles, p)
		if _, err := w.reg.Register(p.Entity, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	queries := churnQueries(b, w.sources[0])
	cached := resolver.New(w.profiles, w.types, b.Map)

	for step := 0; step < 400; step++ {
		op := w.churn()
		for qi, q := range queries {
			// The same owner asks twice, so an unmoved cache serves the
			// second; a liveness filter is on for most resolutions.
			ctx := resolver.Context{OwnerLocation: location.AtPlace(w.room())}
			if w.rng.Intn(4) > 0 {
				ctx.LiveOnly, ctx.LiveGen = w.reg.IsLive, w.reg.Generation()
			}
			want, wantErr := resolver.New(w.profiles, w.types, b.Map).Resolve(q, ctx)
			for rep := 0; rep < 2; rep++ {
				got, err := cached.Resolve(q, ctx)
				if (err == nil) != (wantErr == nil) || errors.Is(err, resolver.ErrNoProvider) != errors.Is(wantErr, resolver.ErrNoProvider) {
					t.Fatalf("step %d (%s), query %d, owner in %s: cached error %v, fresh error %v",
						step, op, qi, ctx.OwnerLocation.Place, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(got.Root, want.Root) || !reflect.DeepEqual(got.Plan, want.Plan) {
					t.Fatalf("step %d (%s), query %d, owner in %s: cached answer %v, fresh answer %v",
						step, op, qi, ctx.OwnerLocation.Place, got.Providers(), want.Providers())
				}
			}
		}
	}
	hits, misses := cached.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("cache hits %d, misses %d: the churn never exercised both", hits, misses)
	}
	t.Logf("cache hits %d, misses %d", hits, misses)
}

// TestResolveCacheSharesPlan: the plan is computed once per resolution and
// shared by every configuration the cache serves from it, and each of its
// inputs holds exactly the producers of one run of Flatten(root).
func TestResolveCacheSharesPlan(t *testing.T) {
	profiles := &profile.Manager{}
	for i := 0; i < 5; i++ {
		put(t, profiles, profile.Profile{Name: fmt.Sprintf("door-%d", i), Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor}})
	}
	putLocator(t, profiles)
	put(t, profiles, profile.Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "pathCE",
		Inputs:  []ctxtype.Type{ctxtype.LocationPosition, ctxtype.LocationPosition},
		Outputs: []ctxtype.Type{ctxtype.PathRoute},
	})
	res := resolver.New(profiles, ctxtype.NewRegistry(), nil)
	resolve := func() *resolver.Configuration {
		t.Helper()
		q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.PathRoute}, query.ModeSubscribe)
		cfg, err := res.Resolve(q, resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	first, second, third := resolve(), resolve(), resolve()
	if hits, misses := res.CacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("cache hits %d, misses %d, want 2 and 1", hits, misses)
	}
	if second.Plan != third.Plan || first.Plan != second.Plan {
		t.Fatal("configurations served from one cache entry carry different plans")
	}

	plan := second.Plan
	var want []resolver.Input
	var runs [][]guid.GUID
	for _, e := range resolver.Flatten(second.Root) {
		if n := len(want); n > 0 && want[n-1].Consumer == e.Consumer && want[n-1].Type == e.Type {
			runs[n-1] = append(runs[n-1], e.Producer)
			continue
		}
		want = append(want, resolver.Input{Consumer: e.Consumer, Type: e.Type})
		runs = append(runs, []guid.GUID{e.Producer})
	}
	if len(plan.Inputs) != len(want) {
		t.Fatalf("plan inputs %v, want the runs of Flatten %v", plan.Inputs, runs)
	}
	for i, in := range plan.Inputs {
		if in.Consumer != want[i].Consumer || in.Type != want[i].Type || !slices.Equal(in.Producers.Members(), runs[i]) {
			t.Fatalf("plan input %d = %v, want the run of Flatten %v %v %v", i, in, want[i].Consumer, want[i].Type, runs[i])
		}
	}
	var doors []guid.GUID
	for _, in := range plan.Inputs {
		if in.Type == ctxtype.LocationSightingDoor {
			doors = in.Producers.Members()
		}
	}
	if len(doors) != 5 || !reflect.DeepEqual(plan.Leaves, doors) {
		t.Fatalf("plan leaves %v, want the 5 doors %v", plan.Leaves, doors)
	}
}

// TestResolveCacheSnapshotNeverServesOlder: lookups read the cache
// without a lock while stores replace it and the profile store and the
// liveness generation move under them. A resolution that starts after a
// change never answers from before it. Printer k outranks printers below
// k and is registered before printer k-1 departs; the display's profile
// is Put afresh each round with its round number.
func TestResolveCacheSnapshotNeverServesOlder(t *testing.T) {
	const rounds, readers = 200, 2
	profiles := &profile.Manager{}
	reg := registry.New(registry.Config{Lease: time.Hour})
	defer reg.Close()
	printers := make([]guid.GUID, rounds)
	rank := make(map[guid.GUID]int, rounds)
	for k := range printers {
		printers[k] = put(t, profiles, profile.Profile{
			Name:          fmt.Sprintf("p%d", k),
			Quality:       0.5 + 0.5*float64(k)/rounds,
			Advertisement: &profile.Advertisement{Interface: "printer"},
		})
		rank[printers[k]] = k
	}
	display := profile.Profile{
		Entity:        guid.New(guid.KindDevice),
		Name:          "display",
		Attributes:    map[string]string{"round": "0"},
		Advertisement: &profile.Advertisement{Interface: "display"},
	}
	put(t, profiles, display)
	for _, id := range []guid.GUID{printers[0], display.Entity} {
		if _, err := reg.Register(id, "device"); err != nil {
			t.Fatal(err)
		}
	}
	res := resolver.New(profiles, ctxtype.NewRegistry(), nil)
	owner := guid.New(guid.KindApplication)
	printerQ := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	displayQ := query.New(owner, query.What{Entity: display.Entity}, query.ModeAdvertisement)

	var latest atomic.Int64 // the printer every resolution from now on must bind, or a later one
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k0 := int(latest.Load())
				p, err := profiles.Lookup(display.Entity)
				if err != nil {
					t.Error(err)
					return
				}
				round0 := p.Attributes["round"]
				ctx := resolver.Context{LiveOnly: reg.IsLive, LiveGen: reg.Generation()}
				root, err := res.ResolveRoot(printerQ, ctx)
				if errors.Is(err, resolver.ErrNoProvider) {
					// The liveness filter asks one printer at a time, so a
					// resolution can miss the arrival and see the departure.
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if k := rank[root.Provider]; k < k0 {
					t.Errorf("bound printer %d after printer %d was live and %d departed", k, k0, k0-1)
					return
				}
				root, err = res.ResolveRoot(displayQ, ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := strconv.Atoi(root.Profile.Attributes["round"]); got < mustAtoi(t, round0) {
					t.Errorf("answered the display's round %d profile after round %s was stored", got, round0)
					return
				}
				runtime.Gosched() // let the writer on
			}
		}()
	}
	for k := 1; k < rounds; k++ {
		if _, err := reg.Register(printers[k], "printer"); err != nil {
			t.Fatal(err)
		}
		if err := reg.Deregister(printers[k-1]); err != nil {
			t.Fatal(err)
		}
		latest.Store(int64(k))
		display.Attributes = map[string]string{"round": strconv.Itoa(k)}
		put(t, profiles, display)
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if hits, misses := res.CacheStats(); hits+misses == 0 {
		t.Fatal("no cacheable resolution was made")
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
