package location

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// testMap builds a small two-floor building:
//
//	Floor L10:  lobby — corridor — 01 — 02 (02's door locked)
//	                      |
//	                     stairs (cross-frame to L9)
//	Floor L9:   stairs9 — open9
func testMap(t testing.TB) *Map {
	t.Helper()
	places := []Place{
		{ID: "l10.lobby", Path: "campus/lt/l10/lobby", Centroid: Point{Frame: "L10", X: 0, Y: 0}, Kind: "lobby"},
		{ID: "l10.corridor", Path: "campus/lt/l10/corridor", Centroid: Point{Frame: "L10", X: 10, Y: 0}, Kind: "corridor"},
		{ID: "l10.01", Path: "campus/lt/l10/l10.01", Centroid: Point{Frame: "L10", X: 20, Y: 0}, Kind: "room"},
		{ID: "l10.02", Path: "campus/lt/l10/l10.02", Centroid: Point{Frame: "L10", X: 30, Y: 0}, Kind: "room"},
		{ID: "l10.stairs", Path: "campus/lt/l10/stairs", Centroid: Point{Frame: "L10", X: 10, Y: 10}, Kind: "stairs"},
		{ID: "l9.stairs", Path: "campus/lt/l9/stairs", Centroid: Point{Frame: "L9", X: 10, Y: 10}, Kind: "stairs"},
		{ID: "l9.open", Path: "campus/lt/l9/open", Centroid: Point{Frame: "L9", X: 0, Y: 10}, Kind: "open-space"},
	}
	links := []Link{
		{A: "l10.lobby", B: "l10.corridor", Door: "d-lobby"},
		{A: "l10.corridor", B: "l10.01", Door: "d-1001"},
		{A: "l10.corridor", B: "l10.02", Door: "d-1002", Locked: true},
		{A: "l10.corridor", B: "l10.stairs"},
		{A: "l10.stairs", B: "l9.stairs", Weight: 5},
		{A: "l9.stairs", B: "l9.open"},
	}
	m, err := NewMap(places, links)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPointDistance(t *testing.T) {
	a := Point{Frame: "F", X: 0, Y: 0}
	b := Point{Frame: "F", X: 3, Y: 4}
	if d := a.Distance(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	c := Point{Frame: "G", X: 0, Y: 0}
	if !math.IsInf(a.Distance(c), 1) {
		t.Fatal("cross-frame distance must be +Inf")
	}
}

func TestPathOperations(t *testing.T) {
	p := Path("campus/lt/l10/l10.01")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if Path("").Validate() == nil || Path("a//b").Validate() == nil {
		t.Fatal("invalid paths accepted")
	}
	if !Path("campus/lt").Contains(p) || !p.Contains(p) {
		t.Fatal("Contains false negative")
	}
	if Path("campus/l").Contains(p) {
		t.Fatal("Contains must match whole segments")
	}
	if p.Leaf() != "l10.01" {
		t.Fatalf("Leaf = %q", p.Leaf())
	}
	if p.Parent() != "campus/lt/l10" {
		t.Fatalf("Parent = %q", p.Parent())
	}
	if Path("campus").Parent() != "" {
		t.Fatal("root parent must be empty")
	}
	if p.Depth() != 4 || Path("").Depth() != 0 {
		t.Fatal("Depth broken")
	}
}

func TestRefBasics(t *testing.T) {
	if !(Ref{}).Empty() {
		t.Fatal("zero Ref should be empty")
	}
	r := AtPlace("l10.01")
	if r.Empty() || len(r.Models()) != 1 || r.Models()[0] != ModelTopological {
		t.Fatal("AtPlace broken")
	}
	r2 := AtPoint("L10", 1, 2)
	if r2.Point == nil || r2.Point.X != 1 {
		t.Fatal("AtPoint broken")
	}
	r3 := AtPath("a/b")
	if r3.Path != "a/b" {
		t.Fatal("AtPath broken")
	}
	for _, r := range []Ref{r, r2, r3, {}} {
		if r.String() == "" {
			t.Fatal("empty String")
		}
	}
	if ModelGeometric.String() != "geometric" || Model(99).String() == "" {
		t.Fatal("Model.String broken")
	}
}

func TestNewMapValidation(t *testing.T) {
	good := Place{ID: "a", Path: "x/a", Centroid: Point{Frame: "F"}}
	cases := []struct {
		name   string
		places []Place
		links  []Link
	}{
		{"empty id", []Place{{Path: "x/a"}}, nil},
		{"bad path", []Place{{ID: "a", Path: "x//a"}}, nil},
		{"dup id", []Place{good, {ID: "a", Path: "x/b"}}, nil},
		{"dup path", []Place{good, {ID: "b", Path: "x/a"}}, nil},
		{"link to unknown", []Place{good}, []Link{{A: "a", B: "zzz"}}},
		{"negative weight", []Place{good, {ID: "b", Path: "x/b", Centroid: Point{Frame: "F"}}},
			[]Link{{A: "a", B: "b", Weight: -1}}},
	}
	for _, c := range cases {
		if _, err := NewMap(c.places, c.links); err == nil {
			t.Errorf("%s: NewMap accepted invalid input", c.name)
		}
	}
}

func TestResolveFromEachModel(t *testing.T) {
	m := testMap(t)

	// Topological → all three.
	r, err := m.Resolve(AtPlace("l10.01"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Place != "l10.01" || r.Path != "campus/lt/l10/l10.01" || r.Point == nil {
		t.Fatalf("resolve from place: %v", r)
	}
	if r.Point.X != 20 {
		t.Fatal("centroid not filled")
	}

	// Hierarchical → all three.
	r, err = m.Resolve(AtPath("campus/lt/l10/lobby"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Place != "l10.lobby" {
		t.Fatalf("resolve from path: %v", r)
	}

	// Geometric → nearest place in frame; the observed point is preserved.
	r, err = m.Resolve(AtPoint("L10", 19, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Place != "l10.01" {
		t.Fatalf("nearest place = %v, want l10.01", r.Place)
	}
	if r.Point.X != 19 || r.Point.Y != 1 {
		t.Fatal("observed point must be preserved over centroid")
	}

	// Unresolvable.
	if _, err := m.Resolve(Ref{}); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("empty ref: %v", err)
	}
	if _, err := m.Resolve(AtPoint("NOWHERE", 0, 0)); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("unknown frame: %v", err)
	}
	// Unknown path resolves to nothing.
	if _, err := m.Resolve(AtPath("campus/unknown")); err == nil {
		t.Fatal("unknown path resolved")
	}
}

func TestSamePlace(t *testing.T) {
	m := testMap(t)
	same, err := m.SamePlace(AtPath("campus/lt/l10/l10.01"), AtPoint("L10", 21, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("path and nearby point should be the same place")
	}
	same, err = m.SamePlace(AtPlace("l10.01"), AtPlace("l10.02"))
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("different rooms reported same")
	}
	if _, err := m.SamePlace(Ref{}, AtPlace("l10.01")); err == nil {
		t.Fatal("unresolvable ref accepted")
	}
	if _, err := m.SamePlace(AtPlace("l10.01"), Ref{}); err == nil {
		t.Fatal("unresolvable ref accepted")
	}
}

func TestShortestRouteBasics(t *testing.T) {
	m := testMap(t)
	r, err := m.ShortestRoute(AtPlace("l10.lobby"), AtPlace("l10.01"))
	if err != nil {
		t.Fatal(err)
	}
	want := []PlaceID{"l10.lobby", "l10.corridor", "l10.01"}
	if len(r.Places) != len(want) {
		t.Fatalf("route = %v", r.Places)
	}
	for i := range want {
		if r.Places[i] != want[i] {
			t.Fatalf("route = %v, want %v", r.Places, want)
		}
	}
	if r.Hops() != 2 {
		t.Fatalf("hops = %d", r.Hops())
	}
	if r.Length != 20 {
		t.Fatalf("length = %v, want 20", r.Length)
	}
	if len(r.Doors) != 2 || r.Doors[0] != "d-lobby" || r.Doors[1] != "d-1001" {
		t.Fatalf("doors = %v", r.Doors)
	}
}

func TestShortestRouteSamePlace(t *testing.T) {
	m := testMap(t)
	r, err := m.ShortestRoute(AtPlace("l10.01"), AtPlace("l10.01"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() != 0 || r.Length != 0 {
		t.Fatalf("self route = %+v", r)
	}
}

func TestShortestRouteLockedDoors(t *testing.T) {
	m := testMap(t)
	// l10.02 is behind a locked door: unreachable by default.
	if _, err := m.ShortestRoute(AtPlace("l10.lobby"), AtPlace("l10.02")); !errors.Is(err, ErrNoPath) {
		t.Fatalf("locked door traversed: %v", err)
	}
	// With the option it opens.
	r, err := m.ShortestRoute(AtPlace("l10.lobby"), AtPlace("l10.02"), ThroughLockedDoors())
	if err != nil {
		t.Fatal(err)
	}
	if r.Places[len(r.Places)-1] != "l10.02" {
		t.Fatalf("route = %v", r.Places)
	}
}

func TestShortestRouteCrossFloor(t *testing.T) {
	m := testMap(t)
	r, err := m.ShortestRoute(AtPlace("l10.01"), AtPlace("l9.open"))
	if err != nil {
		t.Fatal(err)
	}
	// Must pass through both stairs.
	seen := map[PlaceID]bool{}
	for _, p := range r.Places {
		seen[p] = true
	}
	if !seen["l10.stairs"] || !seen["l9.stairs"] {
		t.Fatalf("cross-floor route misses stairs: %v", r.Places)
	}
}

func TestTravelDistance(t *testing.T) {
	m := testMap(t)
	d := m.TravelDistance(AtPlace("l10.lobby"), AtPlace("l10.01"))
	if d != 20 {
		t.Fatalf("travel distance = %v", d)
	}
	if !math.IsInf(m.TravelDistance(AtPlace("l10.lobby"), AtPlace("l10.02")), 1) {
		t.Fatal("unreachable place must be +Inf")
	}
}

func TestNearestPlaceTieBreakDeterministic(t *testing.T) {
	places := []Place{
		{ID: "b", Path: "x/b", Centroid: Point{Frame: "F", X: 1, Y: 0}},
		{ID: "a", Path: "x/a", Centroid: Point{Frame: "F", X: -1, Y: 0}},
	}
	m, err := NewMap(places, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Equidistant: the lexicographically smaller id must win, always.
	for i := 0; i < 10; i++ {
		got, err := m.NearestPlace(Point{Frame: "F", X: 0, Y: 0})
		if err != nil {
			t.Fatal(err)
		}
		if got != "a" {
			t.Fatalf("tie break = %q, want a", got)
		}
	}
}

func TestMapAccessors(t *testing.T) {
	m := testMap(t)
	if _, ok := m.Place("l10.01"); !ok {
		t.Fatal("Place lookup failed")
	}
	if _, ok := m.Place("zzz"); ok {
		t.Fatal("unknown place found")
	}
	ps := m.Places()
	if len(ps) != 7 {
		t.Fatalf("Places len = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Fatal("Places not sorted")
		}
	}
	if len(m.Links()) != 6 {
		t.Fatal("Links length wrong")
	}
	if id, ok := m.PlaceAtPath("campus/lt/l10/l10.01"); !ok || id != "l10.01" {
		t.Fatal("PlaceAtPath broken")
	}
}

// Property: resolving an already-resolved ref is idempotent.
func TestPropResolveIdempotent(t *testing.T) {
	m := testMap(t)
	ids := m.Places()
	f := func(i uint8) bool {
		r, err := m.Resolve(AtPlace(ids[int(i)%len(ids)]))
		if err != nil {
			return false
		}
		r2, err := m.Resolve(r)
		if err != nil {
			return false
		}
		return r2.Place == r.Place && r2.Path == r.Path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestRoute is symmetric in length (undirected graph) and
// satisfies the triangle inequality through any intermediate place.
func TestPropRouteMetricProperties(t *testing.T) {
	m := testMap(t)
	// Exclude the locked room, unreachable by default.
	var ids []PlaceID
	for _, id := range m.Places() {
		if id != "l10.02" {
			ids = append(ids, id)
		}
	}
	f := func(i, j, k uint8) bool {
		a := ids[int(i)%len(ids)]
		b := ids[int(j)%len(ids)]
		c := ids[int(k)%len(ids)]
		dab := m.TravelDistance(AtPlace(a), AtPlace(b))
		dba := m.TravelDistance(AtPlace(b), AtPlace(a))
		if math.Abs(dab-dba) > 1e-9 {
			return false
		}
		dac := m.TravelDistance(AtPlace(a), AtPlace(c))
		dcb := m.TravelDistance(AtPlace(c), AtPlace(b))
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every route's reported Length equals the sum of its link
// weights, and consecutive places are actually linked.
func TestPropRouteConsistency(t *testing.T) {
	m := testMap(t)
	adjW := map[[2]PlaceID]float64{}
	for _, l := range m.Links() {
		pa, _ := m.Place(l.A)
		pb, _ := m.Place(l.B)
		w := l.Weight
		if w == 0 {
			w = pa.Centroid.Distance(pb.Centroid)
			if math.IsInf(w, 1) {
				w = 1
			}
		}
		adjW[[2]PlaceID{l.A, l.B}] = w
		adjW[[2]PlaceID{l.B, l.A}] = w
	}
	ids := m.Places()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		r, err := m.ShortestRoute(AtPlace(a), AtPlace(b), ThroughLockedDoors())
		if err != nil {
			t.Fatalf("route %s→%s: %v", a, b, err)
		}
		var sum float64
		for i := 1; i < len(r.Places); i++ {
			w, ok := adjW[[2]PlaceID{r.Places[i-1], r.Places[i]}]
			if !ok {
				t.Fatalf("route uses non-link %s–%s", r.Places[i-1], r.Places[i])
			}
			sum += w
		}
		if math.Abs(sum-r.Length) > 1e-9 {
			t.Fatalf("length %v != sum %v", r.Length, sum)
		}
	}
}

func BenchmarkShortestRoute(b *testing.B) {
	m := testMap(b)
	from, to := AtPlace("l10.lobby"), AtPlace("l9.open")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.ShortestRoute(from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceRoute is the original route search, kept as an oracle for the
// indexed one: Dijkstra over map-keyed state, extracting the next place by a
// linear scan for the minimum distance, ties to the lower PlaceID. It builds
// its own adjacency from Links, in link order.
func referenceRoute(m *Map, from, to Ref, throughLocked bool) (Route, error) {
	type refEdge struct {
		to     PlaceID
		weight float64
		locked bool
		door   string
	}
	adj := map[PlaceID][]refEdge{}
	for _, l := range m.Links() {
		pa, _ := m.Place(l.A)
		pb, _ := m.Place(l.B)
		w := l.Weight
		if w == 0 {
			w = pa.Centroid.Distance(pb.Centroid)
			if math.IsInf(w, 1) {
				w = 1
			}
		}
		adj[l.A] = append(adj[l.A], refEdge{l.B, w, l.Locked, l.Door})
		adj[l.B] = append(adj[l.B], refEdge{l.A, w, l.Locked, l.Door})
	}
	rf, err := m.Resolve(from)
	if err != nil {
		return Route{}, err
	}
	rt, err := m.Resolve(to)
	if err != nil {
		return Route{}, err
	}
	src, dst := rf.Place, rt.Place
	if src == dst {
		return Route{Places: []PlaceID{src}}, nil
	}
	dist := map[PlaceID]float64{src: 0}
	prev := map[PlaceID]PlaceID{}
	prevDoor := map[PlaceID]string{}
	visited := map[PlaceID]bool{}
	for {
		cur := PlaceID("")
		curD := math.Inf(1)
		for id, d := range dist {
			if visited[id] {
				continue
			}
			if d < curD || (d == curD && (cur == "" || id < cur)) {
				cur, curD = id, d
			}
		}
		if cur == "" {
			return Route{}, ErrNoPath
		}
		if cur == dst {
			break
		}
		visited[cur] = true
		for _, e := range adj[cur] {
			if e.locked && !throughLocked {
				continue
			}
			nd := curD + e.weight
			if old, ok := dist[e.to]; !ok || nd < old {
				dist[e.to] = nd
				prev[e.to] = cur
				prevDoor[e.to] = e.door
			}
		}
	}
	var places []PlaceID
	var doors []string
	for at := dst; ; {
		places = append(places, at)
		if at == src {
			break
		}
		doors = append(doors, prevDoor[at])
		at = prev[at]
	}
	for i, j := 0, len(places)-1; i < j; i, j = i+1, j-1 {
		places[i], places[j] = places[j], places[i]
	}
	for i, j := 0, len(doors)-1; i < j; i, j = i+1, j-1 {
		doors[i], doors[j] = doors[j], doors[i]
	}
	return Route{Places: places, Doors: doors, Length: dist[dst]}, nil
}

// randomMap builds a seeded map of up to 24 places over up to three frames.
// Centroids sit on a small integer grid and explicit weights are small
// integers, so equal-cost routes are common; links are sparse enough to leave
// unreachable components; about one link in five is locked, and links
// between frames without an explicit weight cost one unit. Place ids are
// dealt in shuffled order so sorted order differs from insertion order.
func randomMap(t *testing.T, rng *rand.Rand) *Map {
	t.Helper()
	n := 2 + rng.Intn(23)
	frames := 1 + rng.Intn(3)
	perm := rng.Perm(n)
	places := make([]Place, n)
	for i := range places {
		id := fmt.Sprintf("p%02d", perm[i])
		places[i] = Place{
			ID:   PlaceID(id),
			Path: Path("site/" + id),
			Centroid: Point{
				Frame: fmt.Sprintf("F%d", rng.Intn(frames)),
				X:     float64(rng.Intn(4)),
				Y:     float64(rng.Intn(4)),
			},
		}
	}
	var links []Link
	for k := rng.Intn(2 * n); k > 0; k-- {
		a, b := places[rng.Intn(n)], places[rng.Intn(n)]
		l := Link{A: a.ID, B: b.ID, Door: fmt.Sprintf("d%d", k), Locked: rng.Intn(5) == 0}
		if a.ID == b.ID || a.Centroid == b.Centroid || rng.Intn(2) == 0 {
			l.Weight = float64(1 + rng.Intn(3))
		}
		links = append(links, l)
	}
	m, err := NewMap(places, links)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRouteMatchesReference: on seeded random maps, the indexed search
// returns the reference search's route — places, doors and length — for
// every ordered pair of places, with and without ThroughLockedDoors, and
// fails with ErrNoPath exactly where the reference does. TravelDistances
// agrees with TravelDistance for every target, including unresolvable ones.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	unreachable := 0
	for trial := 0; trial < 200; trial++ {
		m := randomMap(t, rng)
		ids := m.Places()
		targets := make([]Ref, 0, len(ids)+2)
		for _, id := range ids {
			targets = append(targets, AtPlace(id))
		}
		targets = append(targets, Ref{}, AtPath("site/nowhere"))
		for _, a := range ids {
			for _, b := range ids {
				for _, locked := range []bool{false, true} {
					var opts []RouteOption
					if locked {
						opts = append(opts, ThroughLockedDoors())
					}
					got, err := m.ShortestRoute(AtPlace(a), AtPlace(b), opts...)
					want, werr := referenceRoute(m, AtPlace(a), AtPlace(b), locked)
					if errors.Is(werr, ErrNoPath) {
						unreachable++
						if !errors.Is(err, ErrNoPath) {
							t.Fatalf("trial %d %s→%s locked=%v: got %+v, %v; reference finds no path", trial, a, b, locked, got, err)
						}
						continue
					}
					if werr != nil || err != nil {
						t.Fatalf("trial %d %s→%s: err %v, reference err %v", trial, a, b, err, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s→%s locked=%v:\n got %+v\nwant %+v", trial, a, b, locked, got, want)
					}
				}
			}
			ds := m.TravelDistances(AtPlace(a), targets)
			for i, to := range targets {
				if d := m.TravelDistance(AtPlace(a), to); d != ds[i] && !(math.IsInf(d, 1) && math.IsInf(ds[i], 1)) {
					t.Fatalf("trial %d from %s to %v: TravelDistances %v, TravelDistance %v", trial, a, to, ds[i], d)
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no unreachable pair generated: the maps do not exercise ErrNoPath")
	}
}

// TestTravelDistancesUnresolvableSource: an unresolvable source gives +Inf
// for every target, and an empty target list gives an empty answer.
func TestTravelDistancesUnresolvableSource(t *testing.T) {
	m := testMap(t)
	for _, d := range m.TravelDistances(Ref{}, []Ref{AtPlace("l10.01"), AtPlace("l10.lobby")}) {
		if !math.IsInf(d, 1) {
			t.Fatalf("distance from an unresolvable source = %v, want +Inf", d)
		}
	}
	if ds := m.TravelDistances(AtPlace("l10.lobby"), nil); len(ds) != 0 {
		t.Fatalf("no targets gave %v", ds)
	}
}

// TestConcurrentSearches: searches from several goroutines at once share
// only the immutable Map, so each gets the answer a lone search gives (run
// with -race).
func TestConcurrentSearches(t *testing.T) {
	m := randomMap(t, rand.New(rand.NewSource(7)))
	ids := m.Places()
	targets := make([]Ref, len(ids))
	for i, id := range ids {
		targets[i] = AtPlace(id)
	}
	want := make([][]float64, len(ids))
	wantRoute := make([]Route, len(ids))
	for i, id := range ids {
		want[i] = m.TravelDistances(AtPlace(id), targets)
		wantRoute[i], _ = m.ShortestRoute(AtPlace(id), targets[0], ThroughLockedDoors())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, id := range ids {
					if got := m.TravelDistances(AtPlace(id), targets); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("concurrent distances from %s = %v, want %v", id, got, want[i])
						return
					}
					if got, _ := m.ShortestRoute(AtPlace(id), targets[0], ThroughLockedDoors()); !reflect.DeepEqual(got, wantRoute[i]) {
						t.Errorf("concurrent route from %s = %+v, want %+v", id, got, wantRoute[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
