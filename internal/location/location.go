// Package location implements SCI's model of location (paper, Section 3.3).
//
// The paper: "it is preferable to support many types of location model and
// interoperate between them if necessary. For example it may be necessary to
// convert geometric information to a hierarchical model or similarly convert
// network signal strength to a geometric position. To facilitate this it
// will be necessary to develop an intermediate location language."
//
// Three models are provided:
//
//   - Geometric: 2-D coordinates in metres within a named frame (a floor).
//   - Hierarchical: slash-separated containment paths
//     ("campus/livingstone-tower/l10/l10.01").
//   - Topological: a graph of places connected by doors/links, with a
//     shortest-path engine — this is what the pathCE of Section 3.2 uses.
//
// The intermediate language is the Ref type: a tagged union carrying any of
// the three representations, convertible between models through a Map (the
// building's ground truth, held by each Range's Location Service).
package location

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Model enumerates the supported location models.
type Model int

// Supported models.
const (
	ModelUnknown Model = iota
	ModelGeometric
	ModelHierarchical
	ModelTopological
)

var modelNames = [...]string{
	ModelUnknown:      "unknown",
	ModelGeometric:    "geometric",
	ModelHierarchical: "hierarchical",
	ModelTopological:  "topological",
}

// String returns the model name.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Point is a geometric position in metres within a named frame. A frame is
// typically one floor of a building.
type Point struct {
	Frame string  `json:"frame"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// Distance returns the Euclidean distance to o. Points in different frames
// are incomparable; Distance returns +Inf for them.
func (p Point) Distance(o Point) float64 {
	if p.Frame != o.Frame {
		return math.Inf(1)
	}
	dx, dy := p.X-o.X, p.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Path is a hierarchical containment path, e.g.
// "campus/livingstone-tower/l10/l10.01". Segments are lower-case.
type Path string

// Validate checks well-formedness.
func (p Path) Validate() error {
	if p == "" {
		return errors.New("location: empty hierarchical path")
	}
	for _, seg := range strings.Split(string(p), "/") {
		if seg == "" {
			return fmt.Errorf("location: path %q has empty segment", p)
		}
	}
	return nil
}

// Contains reports whether p is o itself or an ancestor of o.
func (p Path) Contains(o Path) bool {
	return p == o || strings.HasPrefix(string(o), string(p)+"/")
}

// Leaf returns the final segment (the place name).
func (p Path) Leaf() string {
	i := strings.LastIndexByte(string(p), '/')
	return string(p[i+1:])
}

// Parent returns the containing path, or "" at the root.
func (p Path) Parent() Path {
	i := strings.LastIndexByte(string(p), '/')
	if i < 0 {
		return ""
	}
	return p[:i]
}

// Depth returns the number of segments.
func (p Path) Depth() int {
	if p == "" {
		return 0
	}
	return strings.Count(string(p), "/") + 1
}

// PlaceID names a node in the topological model ("l10.01", "l10.corridor").
type PlaceID string

// Ref is the intermediate location language: a location expressed in one or
// more models at once. A Ref with several representations filled is already
// cross-model resolved; converters fill missing representations from a Map.
type Ref struct {
	// Point is the geometric representation, if known.
	Point *Point `json:"point,omitempty"`
	// Path is the hierarchical representation, if known.
	Path Path `json:"path,omitempty"`
	// Place is the topological representation, if known.
	Place PlaceID `json:"place,omitempty"`
}

// Empty reports whether no representation is present.
func (r Ref) Empty() bool {
	return r.Point == nil && r.Path == "" && r.Place == ""
}

// Models lists the representations present.
func (r Ref) Models() []Model {
	var out []Model
	if r.Point != nil {
		out = append(out, ModelGeometric)
	}
	if r.Path != "" {
		out = append(out, ModelHierarchical)
	}
	if r.Place != "" {
		out = append(out, ModelTopological)
	}
	return out
}

// String renders a compact form.
func (r Ref) String() string {
	var parts []string
	if r.Point != nil {
		parts = append(parts, fmt.Sprintf("geo(%s:%.1f,%.1f)", r.Point.Frame, r.Point.X, r.Point.Y))
	}
	if r.Path != "" {
		parts = append(parts, "hier("+string(r.Path)+")")
	}
	if r.Place != "" {
		parts = append(parts, "topo("+string(r.Place)+")")
	}
	if len(parts) == 0 {
		return "loc(?)"
	}
	return strings.Join(parts, "+")
}

// AtPlace builds a topological Ref.
func AtPlace(p PlaceID) Ref { return Ref{Place: p} }

// AtPath builds a hierarchical Ref.
func AtPath(p Path) Ref { return Ref{Path: p} }

// AtPoint builds a geometric Ref.
func AtPoint(frame string, x, y float64) Ref {
	return Ref{Point: &Point{Frame: frame, X: x, Y: y}}
}

// Place is the ground truth about one place, tying the three models
// together: a topological node with a hierarchical path and a geometric
// centroid.
type Place struct {
	ID       PlaceID `json:"id"`
	Path     Path    `json:"path"`
	Centroid Point   `json:"centroid"`
	// Kind is a free-form tag ("room", "corridor", "lobby", "open-space").
	Kind string `json:"kind,omitempty"`
}

// Link is a traversable connection between two places (a door, a stairwell,
// a corridor junction). Links are symmetric.
type Link struct {
	A PlaceID `json:"a"`
	B PlaceID `json:"b"`
	// Weight is the traversal cost in metres; 0 means derive from centroid
	// distance.
	Weight float64 `json:"weight,omitempty"`
	// Door optionally names the door sensor on this link (CAPA: doors carry
	// badge sensors).
	Door string `json:"door,omitempty"`
	// Locked marks doors that cannot be traversed without access (the
	// printer P3 scenario of Section 5).
	Locked bool `json:"locked,omitempty"`
}

// Map is the ground truth for a deployment area: the place graph plus the
// cross-model correspondences. It is immutable after Build; Lookup methods
// are safe for concurrent use.
//
// Route searches run over an integer-indexed copy of the graph: each place
// gets its position in sorted PlaceID order, so comparing indices is
// comparing ids, and adjacency is a slice per index.
type Map struct {
	places map[PlaceID]Place
	byPath map[Path]PlaceID
	ids    []PlaceID         // index → place, sorted
	index  map[PlaceID]int32 // place → index
	adj    [][]edge          // by index, each list in link order
	links  []Link
}

type edge struct {
	to     int32
	weight float64
	locked bool
	door   string
}

// Errors.
var (
	ErrUnknownPlace = errors.New("location: unknown place")
	ErrNoPath       = errors.New("location: no traversable path")
	ErrUnresolvable = errors.New("location: cannot resolve between models")
)

// NewMap validates and indexes places and links.
func NewMap(places []Place, links []Link) (*Map, error) {
	m := &Map{
		places: make(map[PlaceID]Place, len(places)),
		byPath: make(map[Path]PlaceID, len(places)),
		index:  make(map[PlaceID]int32, len(places)),
		links:  make([]Link, 0, len(links)),
	}
	for _, p := range places {
		if p.ID == "" {
			return nil, errors.New("location: place with empty id")
		}
		if err := p.Path.Validate(); err != nil {
			return nil, fmt.Errorf("location: place %q: %w", p.ID, err)
		}
		if _, dup := m.places[p.ID]; dup {
			return nil, fmt.Errorf("location: duplicate place %q", p.ID)
		}
		if prev, dup := m.byPath[p.Path]; dup {
			return nil, fmt.Errorf("location: path %q used by %q and %q", p.Path, prev, p.ID)
		}
		m.places[p.ID] = p
		m.byPath[p.Path] = p.ID
		m.ids = append(m.ids, p.ID)
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	for i, id := range m.ids {
		m.index[id] = int32(i)
	}
	m.adj = make([][]edge, len(m.ids))
	for _, l := range links {
		pa, okA := m.places[l.A]
		pb, okB := m.places[l.B]
		if !okA || !okB {
			return nil, fmt.Errorf("%w: link %s–%s", ErrUnknownPlace, l.A, l.B)
		}
		w := l.Weight
		if w == 0 {
			w = pa.Centroid.Distance(pb.Centroid)
			if math.IsInf(w, 1) {
				w = 1 // cross-frame links (stairs/lifts) default to unit cost
			}
		}
		if w <= 0 {
			return nil, fmt.Errorf("location: non-positive link weight %s–%s", l.A, l.B)
		}
		a, b := m.index[l.A], m.index[l.B]
		m.adj[a] = append(m.adj[a], edge{to: b, weight: w, locked: l.Locked, door: l.Door})
		m.adj[b] = append(m.adj[b], edge{to: a, weight: w, locked: l.Locked, door: l.Door})
		m.links = append(m.links, l)
	}
	return m, nil
}

// Place returns the ground truth for id.
func (m *Map) Place(id PlaceID) (Place, bool) {
	p, ok := m.places[id]
	return p, ok
}

// Places returns all place ids, sorted.
func (m *Map) Places() []PlaceID {
	out := make([]PlaceID, len(m.ids))
	copy(out, m.ids)
	return out
}

// Links returns the link list as built.
func (m *Map) Links() []Link {
	out := make([]Link, len(m.links))
	copy(out, m.links)
	return out
}

// PlaceAtPath resolves a hierarchical path to its topological place.
func (m *Map) PlaceAtPath(p Path) (PlaceID, bool) {
	id, ok := m.byPath[p]
	return id, ok
}

// NearestPlace returns the place whose centroid is nearest to pt within the
// same frame.
func (m *Map) NearestPlace(pt Point) (PlaceID, error) {
	best := PlaceID("")
	bestD := math.Inf(1)
	for id, p := range m.places {
		d := pt.Distance(p.Centroid)
		if d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	if best == "" || math.IsInf(bestD, 1) {
		return "", fmt.Errorf("%w: no place in frame %q", ErrUnknownPlace, pt.Frame)
	}
	return best, nil
}

// Resolve fills in every representation of r that the map can derive,
// returning the enriched Ref. Resolution rules:
//
//	topological  → hierarchical, geometric (ground truth lookup)
//	hierarchical → topological (exact path), then as above
//	geometric    → topological (nearest centroid in frame), then as above
func (m *Map) Resolve(r Ref) (Ref, error) {
	i, err := m.placeIndex(r)
	if err != nil {
		return r, err
	}
	p := m.places[m.ids[i]]
	out := Ref{Place: p.ID, Path: p.Path}
	if r.Point != nil {
		out.Point = r.Point // keep the precise observed point
	} else {
		c := p.Centroid
		out.Point = &c
	}
	return out, nil
}

// placeIndex resolves r to its topological place, by Resolve's rules, and
// returns that place's search index.
func (m *Map) placeIndex(r Ref) (int32, error) {
	place := r.Place
	if place == "" && r.Path != "" {
		if id, ok := m.byPath[r.Path]; ok {
			place = id
		}
	}
	if place == "" && r.Point != nil {
		id, err := m.NearestPlace(*r.Point)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrUnresolvable, err)
		}
		place = id
	}
	if place == "" {
		return 0, ErrUnresolvable
	}
	i, ok := m.index[place]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPlace, place)
	}
	return i, nil
}

// SamePlace reports whether two refs resolve to the same topological place.
func (m *Map) SamePlace(a, b Ref) (bool, error) {
	ra, err := m.Resolve(a)
	if err != nil {
		return false, err
	}
	rb, err := m.Resolve(b)
	if err != nil {
		return false, err
	}
	return ra.Place == rb.Place, nil
}

// Route is a computed path through the topological model.
type Route struct {
	// Places is the place sequence from source to destination inclusive.
	Places []PlaceID `json:"places"`
	// Doors lists the door names crossed, aligned with the hops.
	Doors []string `json:"doors"`
	// Length is the total cost in metres.
	Length float64 `json:"length"`
}

// Hops returns the number of edges traversed.
func (r Route) Hops() int {
	if len(r.Places) == 0 {
		return 0
	}
	return len(r.Places) - 1
}

// RouteOption tunes ShortestRoute.
type RouteOption func(*routeOpts)

type routeOpts struct {
	throughLocked bool
}

// ThroughLockedDoors permits traversing locked links (for planners that
// model keyholders).
func ThroughLockedDoors() RouteOption {
	return func(o *routeOpts) { o.throughLocked = true }
}

// ShortestRoute computes the minimum-cost route between two refs using
// Dijkstra over the place graph. Locked doors are impassable by default.
// Among equal-cost routes the search keeps the one it discovers first,
// settling places in (distance, PlaceID) order, so the answer is
// deterministic.
func (m *Map) ShortestRoute(from, to Ref, opts ...RouteOption) (Route, error) {
	var o routeOpts
	for _, opt := range opts {
		opt(&o)
	}
	src, err := m.placeIndex(from)
	if err != nil {
		return Route{}, fmt.Errorf("location: route source: %w", err)
	}
	dst, err := m.placeIndex(to)
	if err != nil {
		return Route{}, fmt.Errorf("location: route destination: %w", err)
	}
	if src == dst {
		return Route{Places: []PlaceID{m.ids[src]}}, nil
	}
	nodes := m.search(src, o.throughLocked, func(at int32) bool { return at == dst })
	if nodes[dst].state != settled {
		return Route{}, fmt.Errorf("%w: %s → %s", ErrNoPath, m.ids[src], m.ids[dst])
	}

	hops := 0
	for at := dst; at != src; at = nodes[at].prev {
		hops++
	}
	places := make([]PlaceID, hops+1)
	doors := make([]string, hops)
	for at, k := dst, hops; ; k-- {
		places[k] = m.ids[at]
		if k == 0 {
			break
		}
		doors[k-1] = nodes[at].door
		at = nodes[at].prev
	}
	return Route{Places: places, Doors: doors, Length: nodes[dst].dist}, nil
}

// TravelDistance returns the route length between two refs, or +Inf when
// unreachable. It is the metric behind the CAPA "closest printer" Which
// clause.
func (m *Map) TravelDistance(from, to Ref) float64 {
	return m.TravelDistances(from, []Ref{to})[0]
}

// TravelDistances returns the route length from one ref to each of several,
// as TravelDistance would give it, from a single search: +Inf for a target
// that is unresolvable or unreachable. The search stops once every
// resolvable target has settled.
func (m *Map) TravelDistances(from Ref, to []Ref) []float64 {
	out := make([]float64, len(to))
	for i := range out {
		out[i] = math.Inf(1)
	}
	src, err := m.placeIndex(from)
	if err != nil {
		return out
	}
	targets := make([]int32, len(to))
	wanted := make([]bool, len(m.ids))
	pending := 0
	for i, r := range to {
		t, err := m.placeIndex(r)
		if err != nil {
			targets[i] = -1
			continue
		}
		targets[i] = t
		if !wanted[t] {
			wanted[t] = true
			pending++
		}
	}
	if pending == 0 {
		return out
	}
	nodes := m.search(src, false, func(at int32) bool {
		if wanted[at] {
			pending--
		}
		return pending == 0
	})
	for i, t := range targets {
		if t >= 0 {
			out[i] = nodes[t].dist
		}
	}
	return out
}

// Search states of a place.
const (
	unseen uint8 = iota
	queued
	settled
)

// searchNode is one place's state during a route search.
type searchNode struct {
	dist  float64 // +Inf until reached
	prev  int32   // predecessor on the best route found so far
	door  string  // door on the link from prev
	state uint8
}

// queueItem is a heap entry: a place and the distance it was queued at.
type queueItem struct {
	dist float64
	at   int32
}

func (a queueItem) less(b queueItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.at < b.at)
}

// search runs Dijkstra from src and returns every place's final state. A
// binary heap keyed (distance, index) settles places in minimum-distance
// order with ties to the lower PlaceID; a place whose distance improves is
// pushed again and its superseded entry skipped when popped. Distances and
// predecessors change only on a strict improvement, so the first
// equal-cost route discovered is kept. The search stops once done reports
// true for a place it has just settled, or when every reachable place has
// settled. All state is per call: the Map is never written.
func (m *Map) search(src int32, throughLocked bool, done func(at int32) bool) []searchNode {
	nodes := make([]searchNode, len(m.ids))
	for i := range nodes {
		nodes[i].dist = math.Inf(1)
	}
	nodes[src] = searchNode{dist: 0, prev: -1, state: queued}
	heap := append(make([]queueItem, 0, len(nodes)), queueItem{dist: 0, at: src})
	for len(heap) > 0 {
		var cur queueItem
		cur, heap = popItem(heap)
		n := &nodes[cur.at]
		if n.state == settled {
			continue // superseded entry
		}
		n.state = settled
		if done(cur.at) {
			break
		}
		for _, e := range m.adj[cur.at] {
			if e.locked && !throughLocked {
				continue
			}
			to := &nodes[e.to]
			if to.state == settled {
				continue
			}
			nd := cur.dist + e.weight
			if to.state == unseen || nd < to.dist {
				*to = searchNode{dist: nd, prev: cur.at, door: e.door, state: queued}
				heap = pushItem(heap, queueItem{dist: nd, at: e.to})
			}
		}
	}
	return nodes
}

func pushItem(h []queueItem, it queueItem) []queueItem {
	h = append(h, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popItem(h []queueItem) (queueItem, []queueItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}
