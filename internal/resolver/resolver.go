// Package resolver implements the Query Resolver Context Utility (paper,
// Sections 3.1–3.2): "Provides the means to take a high level query and
// decompose it into a useful configuration of Context Entities."
//
// Resolution is backward-chaining type matching over CE Profiles, exactly
// the Section 3.2 walk-through: a query for the Path between Bob and John
// finds a pathCE whose output satisfies path.route; the pathCE needs
// location.position inputs; an objLocationCE provides those but needs
// sightings; doorSensorCEs provide sightings and, being sources, ground the
// chain. The result is a Configuration — "an event subscription graph
// between entities where the inputs to one CE are provided by the outputs
// of others".
//
// Candidate selection honours the query's Which clause (constraints are
// hard filters; the criterion ranks survivors) and uses the semantic
// equivalence classes of ctxtype, which is what lets a request bound to
// door sightings rebind to W-LAN sightings (experiment E9, the iQueue
// critique). Whole resolutions are cached and reused across queries (Solar's
// idea of reusing resolved graphs): an entry is keyed by everything the
// resolution read of the query (What, Which, Where), by the owner's location
// when an implicit Where or the closest criterion reads it, and by whether
// providers were filtered on liveness. Entries hold while the profile store,
// the type registry and the liveness source stay at the generations they
// were resolved under, and are dropped wholesale when any of the three
// moves. A Range passes its Registrar's generation with its liveness filter
// (Context.LiveGen), so every query submitted to it can be served from the
// cache; a repair (a non-empty Exclude) never is. Resolve mints a
// Configuration around a resolution; ResolveRoot, for a caller that reads
// only the chosen root provider (an advertisement), returns the root alone
// and so answers a cache hit without allocating.
package resolver

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
)

// Binding is one node of a configuration graph: a provider chosen to supply
// a context type, with the bindings feeding its inputs.
type Binding struct {
	// Provider is the chosen entity.
	Provider guid.GUID `json:"provider"`
	// Want is the type the consumer asked for.
	Want ctxtype.Type `json:"want"`
	// Output is the provider's actual output type satisfying Want.
	Output ctxtype.Type `json:"output"`
	// Inputs are the bindings feeding each of the provider's declared
	// inputs, in profile order.
	Inputs []*Binding `json:"inputs,omitempty"`
	// Profile is the stored profile the provider was ranked by: frozen and
	// shared with the Profile Manager, so read-only. An answer built from
	// it needs no second lookup, which a provider departing after the
	// resolution would fail. It is nil in a binding decoded from JSON.
	Profile *profile.Profile `json:"-"`
}

// Edge is one consumer←producer pair of a graph: Consumer takes events of
// Type produced by Producer.
type Edge struct {
	Consumer guid.GUID    `json:"consumer"`
	Producer guid.GUID    `json:"producer"`
	Type     ctxtype.Type `json:"type"`
}

// Input is one consumer input of a configuration: Consumer takes events of
// Type from each of Producers. The configuration runtime wires it as one
// mediator subscription.
type Input struct {
	Consumer guid.GUID    `json:"consumer"`
	Type     ctxtype.Type `json:"type"`
	// Producers are the entities feeding the input: an immutable set, built
	// once per resolution and shared by every configuration wired from it,
	// down to the bus subscription that filters on it.
	Producers guid.Sorted `json:"producers"`
}

// Plan is what the configuration runtime needs to wire and prime a graph:
// its consumer inputs, ordered by (Consumer, Type), and its distinct leaves
// (the bindings with no inputs, the root included when it has none),
// strictly ascending. It is computed once per resolution, so every
// configuration the resolver's cache serves from that resolution shares it.
type Plan struct {
	Inputs []Input     `json:"inputs,omitempty"`
	Leaves []guid.GUID `json:"leaves"`
}

// NewPlan computes the plan of the graph under root. The producer sets of
// its inputs are the runs of Flatten(root).
func NewPlan(root *Binding) *Plan {
	leaves := root.appendLeaves(nil)
	slices.SortFunc(leaves, guid.Compare)
	p := &Plan{Leaves: slices.Compact(leaves)}
	edges := Flatten(root)
	producers := make([]guid.GUID, 0, len(edges))
	for i := 0; i < len(edges); {
		e := edges[i]
		producers = producers[:0]
		for ; i < len(edges) && edges[i].Consumer == e.Consumer && edges[i].Type == e.Type; i++ {
			producers = append(producers, edges[i].Producer)
		}
		p.Inputs = append(p.Inputs, Input{Consumer: e.Consumer, Type: e.Type, Producers: guid.NewSorted(producers...)})
	}
	return p
}

// appendLeaves appends the provider of every binding reachable from b that
// has no inputs, in pre-order.
func (b *Binding) appendLeaves(out []guid.GUID) []guid.GUID {
	if b == nil {
		return out
	}
	if len(b.Inputs) == 0 {
		return append(out, b.Provider)
	}
	for _, in := range b.Inputs {
		out = in.appendLeaves(out)
	}
	return out
}

// Configuration is a resolved subscription graph ready for the Event
// Mediator to instantiate. Root and Plan may be shared with the resolver's
// cache and with every other configuration resolved from the same entry:
// they are read-only, like the stored profiles the bindings carry.
// A repair replaces them with a new tree and a new plan.
type Configuration struct {
	// ID names this configuration.
	ID guid.GUID `json:"id"`
	// Query is the originating query.
	Query query.Query `json:"query"`
	// Root is the top-level binding answering the query's What.
	Root *Binding `json:"root"`
	// Plan is Root's wiring: NewPlan(Root).
	Plan *Plan `json:"plan"`
}

// Providers returns every distinct provider in the graph, sorted.
func (c *Configuration) Providers() []guid.GUID {
	out := c.Root.appendProviders(make([]guid.GUID, 0, c.Root.nodes()))
	slices.SortFunc(out, guid.Compare)
	return slices.Compact(out)
}

// nodes counts the bindings reachable from b, a shared sub-graph once per
// path to it: the length of a pre-order walk, so callers can size the walk's
// result up front.
func (b *Binding) nodes() int {
	if b == nil {
		return 0
	}
	n := 1
	for _, in := range b.Inputs {
		n += in.nodes()
	}
	return n
}

// appendProviders appends the provider of every binding reachable from b,
// in pre-order.
func (b *Binding) appendProviders(out []guid.GUID) []guid.GUID {
	if b == nil {
		return out
	}
	out = append(out, b.Provider)
	for _, in := range b.Inputs {
		out = in.appendProviders(out)
	}
	return out
}

// appendEdges appends a consumer←producer edge for every input of every
// binding reachable from b, in pre-order.
func (b *Binding) appendEdges(out []Edge) []Edge {
	for _, in := range b.Inputs {
		out = append(out, Edge{Consumer: b.Provider, Producer: in.Provider, Type: in.Output})
		out = in.appendEdges(out)
	}
	return out
}

// Depth returns the longest provider chain in the graph.
func (c *Configuration) Depth() int {
	var walk func(b *Binding) int
	walk = func(b *Binding) int {
		if b == nil {
			return 0
		}
		max := 0
		for _, in := range b.Inputs {
			if d := walk(in); d > max {
				max = d
			}
		}
		return max + 1
	}
	return walk(c.Root)
}

// Context carries per-resolution situational data.
type Context struct {
	// OwnerLocation anchors implicit Where expressions ("closest-to-me")
	// and the Which "closest" criterion.
	OwnerLocation location.Ref
	// Exclude lists providers that must not be chosen (repair: the failed
	// provider and anything else known-bad).
	Exclude guid.Set
	// LiveOnly, when non-nil, restricts providers to those for which the
	// func returns true (wired to the Registrar's IsLive).
	LiveOnly func(guid.GUID) bool
	// LiveGen is the generation of the liveness LiveOnly reports (the
	// Registrar's Generation, read before resolving): it must move whenever
	// LiveOnly's answer for some entity may have changed. A Context that sets
	// LiveOnly and leaves LiveGen zero is never served from the cache nor
	// stored in it. Every LiveGen a Resolver is given must come from the
	// same liveness source.
	LiveGen uint64
}

// Resolver builds configurations from queries. Construct with New.
type Resolver struct {
	profiles *profile.Manager
	types    *ctxtype.Registry
	places   *location.Map // may be nil: distance criteria degrade gracefully

	// mu is read-locked by lookups, which run concurrently, and
	// write-locked by stores.
	mu     sync.RWMutex
	gens   generations               // guarded by mu; what every cached entry was resolved under
	cache  map[cacheKey][]cacheEntry // guarded by mu
	size   int                       // guarded by mu; entries across all keys
	hits   atomic.Uint64
	misses atomic.Uint64
}

// maxCacheEntries caps the resolution cache: storing into a full cache
// first drops every entry.
const maxCacheEntries = 1024

// generations are the store versions a resolution read: the profile store,
// the type registry and the liveness source.
type generations struct {
	profiles, types, live uint64
}

// cacheKey is everything a resolution reads of its query and context, but
// the Which constraints, which each entry holds itself so that a lookup
// compares them without building a key from the map.
type cacheKey struct {
	what      query.What
	criterion string
	where     placeKey // q.Where.Explicit
	implicit  string   // q.Where.Implicit
	owner     placeKey // ctx.OwnerLocation, only when the resolution reads it
	live      bool     // providers were filtered on liveness
}

// placeKey is a location.Ref by value.
type placeKey struct {
	path     location.Path
	place    location.PlaceID
	point    location.Point
	hasPoint bool
}

func placeKeyOf(r location.Ref) placeKey {
	k := placeKey{path: r.Path, place: r.Place}
	if r.Point != nil {
		k.point, k.hasPoint = *r.Point, true
	}
	return k
}

// cacheEntry is one cached resolution. Nothing writes root or plan after
// they are stored.
type cacheEntry struct {
	constraints map[string]string // the query's Which constraints, copied
	root        *Binding
	plan        *Plan
}

// MaxDepth bounds backward chaining; deeper graphs indicate a profile cycle.
const MaxDepth = 16

// Errors.
var (
	ErrNoProvider = errors.New("resolver: no provider satisfies request")
	ErrCycle      = errors.New("resolver: profile dependency cycle")
	ErrBadWhat    = errors.New("resolver: query What not resolvable to a configuration")
)

// New builds a Resolver. places may be nil.
func New(profiles *profile.Manager, types *ctxtype.Registry, places *location.Map) *Resolver {
	return &Resolver{
		profiles: profiles,
		types:    types,
		places:   places,
		cache:    make(map[cacheKey][]cacheEntry),
	}
}

// CacheStats reports how many cacheable resolutions were served from the
// cache and how many were resolved (experiment E3's reuse rate). A
// resolution the cache may not serve, a repair or a liveness filter without
// a generation, counts as neither.
func (r *Resolver) CacheStats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// Resolve builds a configuration for q. For What=pattern queries this is
// the full backward chain; for What=entity it binds that entity directly;
// What=entity-type resolves to the best advertisement match (used by
// profile and advertisement modes).
//
// A resolution that the cache holds is not repeated: the Configuration
// returned has its own ID and the caller's q, and shares Root and Plan
// with the cached entry.
func (r *Resolver) Resolve(q query.Query, ctx Context) (*Configuration, error) {
	root, plan, err := r.resolve(q, ctx)
	if err != nil {
		return nil, err
	}
	return &Configuration{
		ID:    guid.New(guid.KindConfiguration),
		Query: q,
		Root:  root,
		Plan:  plan,
	}, nil
}

// ResolveRoot is Resolve for a caller that reads only the root binding (an
// advertisement reads the provider's profile from it): the same resolution,
// served from the same cache, with no Configuration minted. The root is
// shared and read-only, like Configuration.Root.
func (r *Resolver) ResolveRoot(q query.Query, ctx Context) (*Binding, error) {
	root, _, err := r.resolve(q, ctx)
	return root, err
}

// resolve returns the root and plan of q's resolution under ctx: the
// cached ones when the cache holds them, otherwise fresh ones, which it
// stores when the resolution may be cached.
func (r *Resolver) resolve(q query.Query, ctx Context) (*Binding, *Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	key, gens, cacheable := r.cacheKey(q, ctx)
	if cacheable {
		if e, ok := r.lookup(key, gens, q.Which.Constraints); ok {
			return e.root, e.plan, nil
		}
	}
	var root *Binding
	var err error
	switch q.What.Kind() {
	case "pattern":
		root, err = r.resolveType(q.What.Pattern, q, ctx, nil, 0)
	case "entity":
		root, err = r.bindEntity(q.What.Entity, ctx)
	case "entity-type":
		root, err = r.bindEntityType(q.What.EntityType, q, ctx)
	default:
		return nil, nil, ErrBadWhat
	}
	if err != nil {
		return nil, nil, err
	}
	plan := NewPlan(root)
	if cacheable {
		r.store(key, gens, q.Which.Constraints, root, plan)
	}
	return root, plan, nil
}

// cacheKey returns the key and generations a resolution of q under ctx is
// cached by, reading the generations before anything is resolved. It
// reports false when the resolution may not be cached: a repair excludes
// providers, and a liveness filter without a generation cannot be checked.
func (r *Resolver) cacheKey(q query.Query, ctx Context) (cacheKey, generations, bool) {
	if len(ctx.Exclude) > 0 || (ctx.LiveOnly != nil && ctx.LiveGen == 0) {
		return cacheKey{}, generations{}, false
	}
	k := cacheKey{
		what:      q.What,
		criterion: q.Which.Criterion,
		where:     placeKeyOf(q.Where.Explicit),
		implicit:  q.Where.Implicit,
		live:      ctx.LiveOnly != nil,
	}
	// Implicit scoping and the closest ranking read the owner's location;
	// nothing else does, so other queries share one entry across owners.
	if q.Where.Implicit != "" || q.Which.Criterion == query.CriterionClosest {
		k.owner = placeKeyOf(ctx.OwnerLocation)
	}
	g := generations{profiles: r.profiles.Generation()}
	if k.live {
		g.live = ctx.LiveGen
	}
	if r.types != nil {
		g.types = r.types.Generation()
	}
	return k, g, true
}

// lookup returns the entry cached under k for the constraints cons: the
// hit of every cached resolution, Resolve's and ResolveRoot's.
//
//lint:hotpath
func (r *Resolver) lookup(k cacheKey, g generations, cons map[string]string) (cacheEntry, bool) {
	r.mu.RLock()
	if g.live == 0 {
		g.live = r.gens.live
	}
	if g == r.gens {
		for _, e := range r.cache[k] {
			if sameConstraints(e.constraints, cons) {
				r.mu.RUnlock()
				r.hits.Add(1)
				return e, true
			}
		}
	}
	r.mu.RUnlock()
	r.misses.Add(1)
	return cacheEntry{}, false
}

// store caches a resolution of k under the constraints cons, made at
// generations g. A lookup at newer generations than the cache's misses
// without dropping anything: the store after it brings the cache to them.
func (r *Resolver) store(k cacheKey, g generations, cons map[string]string, root *Binding, plan *Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.adoptLocked(g) {
		return
	}
	for _, e := range r.cache[k] {
		if sameConstraints(e.constraints, cons) {
			return // a concurrent resolution stored it first
		}
	}
	if r.size >= maxCacheEntries {
		clear(r.cache)
		r.size = 0
	}
	r.cache[k] = append(r.cache[k], cacheEntry{constraints: maps.Clone(cons), root: root, plan: plan})
	r.size++
}

// adoptLocked brings the cache to generations g, dropping every entry when
// a store has moved on since the entries were resolved. It reports false
// when g is older than the cache in some store: that resolution began
// before a mutation the cache has already seen, and must neither be served
// nor stored. A resolution that read no liveness leaves the cache's
// liveness generation as it is.
func (r *Resolver) adoptLocked(g generations) bool {
	if g.live == 0 {
		g.live = r.gens.live
	}
	if g == r.gens {
		return true
	}
	if g.profiles < r.gens.profiles || g.types < r.gens.types || g.live < r.gens.live {
		return false
	}
	clear(r.cache)
	r.size = 0
	r.gens = g
	return true
}

// sameConstraints reports whether two constraint sets are equal; nil and
// empty are.
func sameConstraints(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// ResolveReplacement rebuilds the sub-graph that supplied want after the
// given provider failed, excluding it. The configuration runtime grafts the
// replacement in and rewires subscriptions (experiment E8).
func (r *Resolver) ResolveReplacement(q query.Query, want ctxtype.Type, failed guid.GUID, ctx Context) (*Binding, error) {
	if ctx.Exclude == nil {
		ctx.Exclude = guid.NewSet()
	}
	ctx.Exclude.Add(failed)
	return r.resolveType(want, q, ctx, nil, 0)
}

// resolveType finds a provider for want and recursively satisfies its
// inputs. path is the provider chain above (cycle detection).
func (r *Resolver) resolveType(want ctxtype.Type, q query.Query, ctx Context, path []guid.GUID, depth int) (*Binding, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeded for %s", ErrCycle, MaxDepth, want)
	}

	cands := r.profiles.FindProviders(want, r.types)
	cands = r.filterCandidates(cands, q, ctx, path)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoProvider, want)
	}
	r.rankCandidates(cands, q, ctx)

	var lastErr error
	for _, cand := range cands {
		b, err := r.bindProvider(cand, want, q, ctx, path, depth)
		if err != nil {
			lastErr = err
			continue // try the next-ranked candidate
		}
		return b, nil
	}
	return nil, fmt.Errorf("%w: %s (last: %v)", ErrNoProvider, want, lastErr)
}

// bindProvider recursively satisfies a candidate's inputs.
func (r *Resolver) bindProvider(cand profile.Candidate, want ctxtype.Type, q query.Query, ctx Context, path []guid.GUID, depth int) (*Binding, error) {
	p := cand.Profile
	b := &Binding{
		Provider: p.Entity,
		Want:     want,
		Output:   bestOutput(p, want, r.types),
		Profile:  p,
	}
	childPath := append(path, p.Entity)
	for _, in := range p.Inputs {
		subs, err := r.resolveInput(in, q, ctx, childPath, depth+1)
		if err != nil {
			return nil, fmt.Errorf("input %s of %s: %w", in, p.Name, err)
		}
		b.Inputs = append(b.Inputs, subs...)
	}
	return b, nil
}

// resolveInput satisfies one declared input of an operator CE. When the
// best candidate is a source (sensor level), the operator is fanned in to
// EVERY source of that same output type — the paper's Fig 3 shows the
// objLocationCE "set up to subscribe to all events emanating from door
// sensors (doorSensorCEs)", plural. When the best candidate is another
// operator, a single provider is chosen (as at the query root, where the
// Which clause arbitrates).
func (r *Resolver) resolveInput(want ctxtype.Type, q query.Query, ctx Context, path []guid.GUID, depth int) ([]*Binding, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeded for %s", ErrCycle, MaxDepth, want)
	}
	cands := r.profiles.FindProviders(want, r.types)
	cands = r.filterCandidates(cands, q, ctx, path)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoProvider, want)
	}
	r.rankCandidates(cands, q, ctx)
	top := cands[0]
	if !top.Profile.IsSource() {
		b, err := r.resolveType(want, q, ctx, path, depth)
		if err != nil {
			return nil, err
		}
		return []*Binding{b}, nil
	}
	topOut := bestOutput(top.Profile, want, r.types)
	var out []*Binding
	for _, c := range cands {
		if !c.Profile.IsSource() {
			continue
		}
		if bestOutput(c.Profile, want, r.types) != topOut {
			continue // equivalent-but-different representations stay in reserve for repair
		}
		out = append(out, &Binding{
			Provider: c.Profile.Entity,
			Want:     want,
			Output:   topOut,
			Profile:  c.Profile,
		})
	}
	return out, nil
}

// bindEntity builds a single-node configuration for a named entity.
func (r *Resolver) bindEntity(entity guid.GUID, ctx Context) (*Binding, error) {
	p, err := r.profiles.Lookup(entity)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoProvider, err)
	}
	if ctx.LiveOnly != nil && !ctx.LiveOnly(entity) {
		return nil, fmt.Errorf("%w: %s not live", ErrNoProvider, entity.Short())
	}
	out := ctxtype.Wildcard
	if len(p.Outputs) > 0 {
		out = p.Outputs[0]
	}
	return &Binding{Provider: entity, Want: out, Output: out, Profile: p}, nil
}

// bindEntityType selects the best entity advertising the named interface
// (or carrying kind=<type> attribute), honouring Which.
func (r *Resolver) bindEntityType(entityType string, q query.Query, ctx Context) (*Binding, error) {
	profiles := r.profiles.FindByEntityType(entityType)
	cands := make([]profile.Candidate, 0, len(profiles))
	for _, p := range profiles {
		cands = append(cands, profile.Candidate{Profile: p, Score: 3})
	}
	cands = r.filterCandidates(cands, q, ctx, nil)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: entity type %q", ErrNoProvider, entityType)
	}
	r.rankCandidates(cands, q, ctx)
	p := cands[0].Profile
	out := ctxtype.Wildcard
	if len(p.Outputs) > 0 {
		out = p.Outputs[0]
	}
	return &Binding{Provider: p.Entity, Want: out, Output: out, Profile: p}, nil
}

// filterCandidates applies hard filters: exclusions, liveness, cycle
// avoidance, Which constraints, and Where scoping.
func (r *Resolver) filterCandidates(cands []profile.Candidate, q query.Query, ctx Context, path []guid.GUID) []profile.Candidate {
	out := cands[:0]
	for _, c := range cands {
		p := c.Profile
		if ctx.Exclude.Has(p.Entity) {
			continue
		}
		if ctx.LiveOnly != nil && !ctx.LiveOnly(p.Entity) {
			continue
		}
		onPath := false
		for _, anc := range path {
			if anc == p.Entity {
				onPath = true
				break
			}
		}
		if onPath {
			continue
		}
		if !meetsConstraints(p, q.Which.Constraints) {
			continue
		}
		if !r.meetsWhere(p, q.Where, ctx) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// meetsWhere applies location scoping. Entities without a location pass
// explicit scoping only if the query is unscoped (sensors placed abstractly
// should not be silently excluded from implicit queries).
func (r *Resolver) meetsWhere(p *profile.Profile, w query.Where, ctx Context) bool {
	if w.Empty() {
		return true
	}
	if !w.Explicit.Empty() {
		if p.Location.Empty() {
			// Software operators (entities with inputs) have no physical
			// location and must not be excluded by area scoping; physical
			// sources without a declared location cannot prove they are in
			// the area, so they are.
			return len(p.Inputs) > 0
		}
		if r.places == nil {
			// Without a map, fall back to hierarchical containment.
			return w.Explicit.Path != "" && p.Location.Path != "" &&
				w.Explicit.Path.Contains(p.Location.Path)
		}
		// Same place, or the query names an ancestor area containing the
		// entity's place.
		pr, err := r.places.Resolve(p.Location)
		if err != nil {
			return false
		}
		qr, err := r.places.Resolve(w.Explicit)
		if err == nil {
			if pr.Place == qr.Place {
				return true
			}
		}
		if w.Explicit.Path != "" && pr.Path != "" {
			return w.Explicit.Path.Contains(pr.Path)
		}
		return false
	}
	switch w.Implicit {
	case query.ImplicitSameRoom:
		if p.Location.Empty() || ctx.OwnerLocation.Empty() || r.places == nil {
			return false
		}
		same, err := r.places.SamePlace(p.Location, ctx.OwnerLocation)
		return err == nil && same
	case query.ImplicitSameFloor:
		if p.Location.Empty() || ctx.OwnerLocation.Empty() || r.places == nil {
			return false
		}
		pr, err1 := r.places.Resolve(p.Location)
		or, err2 := r.places.Resolve(ctx.OwnerLocation)
		if err1 != nil || err2 != nil {
			return false
		}
		return pr.Path.Parent() == or.Path.Parent()
	default:
		// closest-to-me is a ranking, not a filter.
		return true
	}
}

// rankCandidates orders candidates best-first under the Which criterion,
// falling back to (score, quality, GUID). Under the closest criterion every
// candidate's travel distance is computed once, by one search from the
// owner, before sorting; a candidate with no location ranks at +Inf, and
// without a map every candidate does.
func (r *Resolver) rankCandidates(cands []profile.Candidate, q query.Query, ctx Context) {
	crit := q.Which.Criterion
	if crit == "" && q.Where.Implicit == query.ImplicitClosest {
		crit = query.CriterionClosest
	}
	var dist []float64 // travel distance from the owner, aligned with cands
	if crit == query.CriterionClosest && r.places != nil {
		to := make([]location.Ref, len(cands))
		for i, c := range cands {
			to[i] = c.Profile.Location
		}
		dist = r.places.TravelDistances(ctx.OwnerLocation, to)
	}
	less := func(i, j int) bool {
		a, b := cands[i], cands[j]
		switch crit {
		case query.CriterionClosest:
			if dist != nil && dist[i] != dist[j] {
				return dist[i] < dist[j]
			}
		case query.CriterionShortestQueue:
			qa, qb := attrFloat(a.Profile, "queue", math.Inf(1)), attrFloat(b.Profile, "queue", math.Inf(1))
			if qa != qb {
				return qa < qb
			}
		case query.CriterionHighestQuality:
			if a.Profile.Quality != b.Profile.Quality {
				return a.Profile.Quality > b.Profile.Quality
			}
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		qa, qb := effectiveQuality(a, r.types), effectiveQuality(b, r.types)
		if qa != qb {
			return qa > qb
		}
		return guid.Less(a.Profile.Entity, b.Profile.Entity)
	}
	// Insertion sort, not slices.SortFunc: the distances must move with
	// their candidates, so every swap is made on both slices. Candidate
	// lists are small.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
			if dist != nil {
				dist[j], dist[j-1] = dist[j-1], dist[j]
			}
		}
	}
}

// effectiveQuality is the profile's own quality, else the registry default
// for its first output.
func effectiveQuality(c profile.Candidate, reg *ctxtype.Registry) float64 {
	if c.Profile.Quality > 0 {
		return c.Profile.Quality
	}
	if reg != nil && len(c.Profile.Outputs) > 0 {
		return reg.Quality(c.Profile.Outputs[0])
	}
	return 0.5
}

func meetsConstraints(p *profile.Profile, cons map[string]string) bool {
	for k, v := range cons {
		if p.Attributes[k] != v {
			return false
		}
	}
	return true
}

func attrFloat(p *profile.Profile, key string, def float64) float64 {
	s, ok := p.Attributes[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return f
}

func bestOutput(p *profile.Profile, want ctxtype.Type, reg *ctxtype.Registry) ctxtype.Type {
	best := ctxtype.Type("")
	bestScore := 0
	for _, out := range p.Outputs {
		s := 0
		if reg != nil {
			s = reg.MatchScore(out, want)
		} else if out == want || out.HasAncestor(want) {
			s = 3
		}
		if s > bestScore {
			best, bestScore = out, s
		}
	}
	if best == "" && len(p.Outputs) > 0 {
		best = p.Outputs[0]
	}
	return best
}

// Flatten walks a binding graph emitting its consumer←producer edges,
// deduplicated and sorted by (Consumer, Type, Producer), so that the edges
// feeding one consumer input form one run: NewPlan groups each run into
// one Input.
func Flatten(root *Binding) []Edge {
	// Every binding but the root is the producer end of one edge of the walk.
	n := root.nodes() - 1
	if n <= 0 {
		return nil
	}
	edges := root.appendEdges(make([]Edge, 0, n))
	slices.SortFunc(edges, compareEdges)
	return slices.Compact(edges)
}

// compareEdges orders edges by consumer, then type, then producer.
func compareEdges(a, b Edge) int {
	if c := guid.Compare(a.Consumer, b.Consumer); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Type), string(b.Type)); c != 0 {
		return c
	}
	return guid.Compare(a.Producer, b.Producer)
}
