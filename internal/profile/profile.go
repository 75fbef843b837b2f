// Package profile implements Context Entity Profiles and Advertisements
// (paper, Section 3.1): "A CE maintains a Profile for its entity that
// contains meta-data describing the entity. For entities that provide a
// service, the CE may also maintain an Advertisement describing the services
// that this entity can provide to other entities."
//
// Profiles declare an entity's typed event inputs and outputs — the raw
// material for the Query Resolver's type matching (Section 3.2) — plus
// free-form attributes and a location. Advertisements name the "well known"
// interface a CAA can invoke on the entity (Section 4: the ServiceInterface).
//
// The Manager is the Profile Manager Context Utility: "provides access and
// update abilities to Context Entities Profiles".
package profile

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
)

// Profile is the metadata a Context Entity maintains about its entity.
type Profile struct {
	// Entity is the described entity's GUID.
	Entity guid.GUID `json:"entity"`
	// Name is a human-readable label ("Bob", "printer-p1", "door L10.01").
	Name string `json:"name"`
	// Inputs are the context types this entity consumes (empty for sources
	// such as sensors).
	Inputs []ctxtype.Type `json:"inputs,omitempty"`
	// Outputs are the context types this entity produces (empty for pure
	// consumers).
	Outputs []ctxtype.Type `json:"outputs,omitempty"`
	// Location is where the entity is, in the intermediate location
	// language; may be empty for mobile or abstract entities.
	Location location.Ref `json:"location,omitzero"`
	// Quality grades this provider's output in (0,1]; 0 means unspecified
	// (the resolver then falls back to the type registry's default).
	Quality float64 `json:"quality,omitempty"`
	// Attributes carry free-form metadata ("colour"="yes", "ppm"="30").
	Attributes map[string]string `json:"attributes,omitempty"`
	// Advertisement describes the entity's service interface, if any.
	Advertisement *Advertisement `json:"advertisement,omitempty"`
}

// Advertisement is the "well known" interface description through which
// CAAs transfer service-specific data to a CE (Section 4.1's
// ServiceInterface, e.g. the print submission interface of CAPA).
type Advertisement struct {
	// Interface names the well-known interface ("printer", "display").
	Interface string `json:"interface"`
	// Operations lists the invocable operations ("submit", "cancel",
	// "query-queue").
	Operations []string `json:"operations"`
	// Attributes carry interface-specific metadata.
	Attributes map[string]string `json:"attributes,omitempty"`
}

// ErrBadProfile reports a structurally invalid profile.
var ErrBadProfile = errors.New("profile: invalid")

// Validate checks structural invariants.
func (p Profile) Validate() error {
	if p.Entity.IsNil() {
		return fmt.Errorf("%w: nil entity", ErrBadProfile)
	}
	if p.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadProfile)
	}
	for _, t := range p.Inputs {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("%w: input: %v", ErrBadProfile, err)
		}
	}
	for _, t := range p.Outputs {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("%w: output: %v", ErrBadProfile, err)
		}
	}
	if p.Quality < 0 || p.Quality > 1 {
		return fmt.Errorf("%w: quality %v outside [0,1]", ErrBadProfile, p.Quality)
	}
	if p.Advertisement != nil {
		if p.Advertisement.Interface == "" {
			return fmt.Errorf("%w: advertisement without interface name", ErrBadProfile)
		}
	}
	return nil
}

// ProvidesIn reports whether the profile offers an output satisfying want
// under the registry's matching rules, returning the best match score
// (0 = no match; see ctxtype.MatchScore).
func (p Profile) ProvidesIn(want ctxtype.Type, reg *ctxtype.Registry) int {
	best := 0
	for _, out := range p.Outputs {
		if s := matchScore(out, want, reg); s > best {
			best = s
		}
	}
	return best
}

// matchScore grades one output type against want: the registry's
// MatchScore, or hierarchy-only matching (3 or 0) without a registry.
func matchScore(out, want ctxtype.Type, reg *ctxtype.Registry) int {
	if reg != nil {
		return reg.MatchScore(out, want)
	}
	if out.HasAncestor(want) || out == want {
		return 3
	}
	return 0
}

// IsSource reports whether the entity produces context without consuming
// any — the ground level at which the resolver's backward chaining stops.
func (p Profile) IsSource() bool {
	return len(p.Outputs) > 0 && len(p.Inputs) == 0
}

// Attr returns an attribute value ("" when absent).
func (p Profile) Attr(key string) string {
	return p.Attributes[key]
}

// Clone returns a deep copy (maps and slices are not shared).
func (p Profile) Clone() Profile {
	out := p
	out.Inputs = append([]ctxtype.Type(nil), p.Inputs...)
	out.Outputs = append([]ctxtype.Type(nil), p.Outputs...)
	out.Attributes = maps.Clone(p.Attributes)
	out.Advertisement = p.Advertisement.Clone()
	return out
}

// Clone returns a deep copy of a, or nil for a nil a.
func (a *Advertisement) Clone() *Advertisement {
	if a == nil {
		return nil
	}
	out := *a
	out.Operations = append([]string(nil), a.Operations...)
	out.Attributes = maps.Clone(a.Attributes)
	return &out
}

// Manager is the Profile Manager Context Utility. It is safe for concurrent
// use. The zero value is usable.
//
// Stored profiles are frozen: Put stores a deep copy, never writes it again,
// and a later Put swaps in a new one. So Lookup, FindProviders and
// FindByEntityType hand out the stored profiles themselves, shared and
// read-only, and a holder keeps seeing the profile as it was when read.
// Get and All return copies, for callers that may write.
type Manager struct {
	mu       sync.RWMutex
	profiles map[guid.GUID]*Profile
	version  map[guid.GUID]uint64
	byOutput map[ctxtype.Type]*bucket
	// byEntityType lists, in entity GUID order, the profiles advertising
	// each interface or carrying each "kind" attribute value.
	byEntityType map[string][]*Profile
	// generation moves inside the write lock with every mutation, so a
	// reader that reads it before taking the read lock never sees a state
	// older than the generation it read.
	generation atomic.Uint64
}

// bucket lists the providers of one output type. Put appends to it and
// FindProviders orders it, by quality descending and then entity GUID
// ascending, the first time it reads the bucket after a change: registering
// n providers of one type costs one sort, not n ordered inserts.
type bucket struct {
	profiles []*Profile
	ordered  bool
}

// ErrNotFound reports a missing profile.
var ErrNotFound = errors.New("profile: not found")

// Put stores (or replaces) a profile after validation, bumping its version.
func (m *Manager) Put(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	cp := p.Clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.profiles == nil {
		m.profiles = make(map[guid.GUID]*Profile)
		m.version = make(map[guid.GUID]uint64)
		m.byOutput = make(map[ctxtype.Type]*bucket)
		m.byEntityType = make(map[string][]*Profile)
	}
	if old, ok := m.profiles[cp.Entity]; ok {
		m.unindexLocked(old)
	}
	m.profiles[cp.Entity] = &cp
	m.indexLocked(&cp)
	m.version[cp.Entity]++
	m.generation.Add(1)
	return nil
}

// entityTypes returns the names FindByEntityType finds p under: its
// advertised interface and its "kind" attribute, each at most once ("" marks
// an absent one).
func entityTypes(p *Profile) [2]string {
	var names [2]string
	if p.Advertisement != nil {
		names[0] = p.Advertisement.Interface
	}
	if kind := p.Attributes["kind"]; kind != names[0] {
		names[1] = kind
	}
	return names
}

func compareEntity(p *Profile, id guid.GUID) int { return guid.Compare(p.Entity, id) }

// indexLocked adds p to the bucket of each distinct output type it declares
// and to the entity-type list of each of its entity types.
func (m *Manager) indexLocked(p *Profile) {
	for i, t := range p.Outputs {
		if slices.Contains(p.Outputs[:i], t) {
			continue
		}
		b := m.byOutput[t]
		if b == nil {
			b = &bucket{}
			m.byOutput[t] = b
		}
		b.profiles = append(b.profiles, p)
		b.ordered = len(b.profiles) == 1
	}
	for _, name := range entityTypes(p) {
		if name == "" {
			continue
		}
		list := m.byEntityType[name]
		i, _ := slices.BinarySearchFunc(list, p.Entity, compareEntity)
		m.byEntityType[name] = slices.Insert(list, i, p)
	}
}

// unindexLocked removes p from everything indexLocked added it to, keeping
// the others' order.
func (m *Manager) unindexLocked(p *Profile) {
	for _, t := range p.Outputs {
		b := m.byOutput[t]
		if b == nil {
			continue // a repeated output type whose bucket is already gone
		}
		if i := slices.Index(b.profiles, p); i >= 0 {
			b.profiles = slices.Delete(b.profiles, i, i+1)
		}
		if len(b.profiles) == 0 {
			delete(m.byOutput, t)
		}
	}
	for _, name := range entityTypes(p) {
		if name == "" {
			continue
		}
		list := m.byEntityType[name]
		if i, ok := slices.BinarySearchFunc(list, p.Entity, compareEntity); ok {
			list = slices.Delete(list, i, i+1)
		}
		if len(list) == 0 {
			delete(m.byEntityType, name)
		} else {
			m.byEntityType[name] = list
		}
	}
}

// orderLocked sorts b by quality descending, then entity GUID ascending:
// the order FindProviders returns one bucket's matches in.
func (m *Manager) orderLocked(b *bucket) {
	slices.SortFunc(b.profiles, func(x, y *Profile) int {
		switch {
		case x.Quality > y.Quality:
			return -1
		case x.Quality < y.Quality:
			return 1
		}
		return guid.Compare(x.Entity, y.Entity)
	})
	b.ordered = true
}

// Generation counts every mutation (Put or Remove) of the store. Callers
// caching derived structures (the resolver's cache of whole resolutions, a
// Range's profile memo) compare generations to detect staleness. It takes
// no lock.
func (m *Manager) Generation() uint64 {
	return m.generation.Load()
}

// Lookup returns the stored profile for entity: frozen and shared, so read
// it and never write through it. Get returns a copy.
func (m *Manager) Lookup(entity guid.GUID) (*Profile, error) {
	m.mu.RLock()
	p, ok := m.profiles[entity]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, entity.Short())
	}
	return p, nil
}

// Get returns a copy of the profile for entity.
func (m *Manager) Get(entity guid.GUID) (Profile, error) {
	p, err := m.Lookup(entity)
	if err != nil {
		return Profile{}, err
	}
	return p.Clone(), nil
}

// Version returns the profile's update count (0 when absent). Only tests
// call it.
func (m *Manager) Version(entity guid.GUID) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version[entity]
}

// Remove deletes the profile for entity; it is not an error if absent.
func (m *Manager) Remove(entity guid.GUID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.profiles[entity]; ok {
		m.unindexLocked(old)
		m.generation.Add(1)
	}
	delete(m.profiles, entity)
	delete(m.version, entity)
}

// Len returns the number of stored profiles.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.profiles)
}

// All returns copies of all profiles, ordered by entity GUID for
// determinism.
func (m *Manager) All() []Profile {
	m.mu.RLock()
	ps := make([]*Profile, 0, len(m.profiles))
	for _, p := range m.profiles {
		ps = append(ps, p)
	}
	m.mu.RUnlock()
	slices.SortFunc(ps, func(a, b *Profile) int { return guid.Compare(a.Entity, b.Entity) })
	out := make([]Profile, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// Candidate is a provider matched by FindProviders, with its match score.
type Candidate struct {
	// Profile is the stored, frozen profile itself, shared with every other
	// reader: read it, never write through it.
	Profile *Profile
	// Score is the type-match grade (3 exact, 2 subsumption, 1 equivalence).
	Score int
}

// FindProviders returns all profiles offering an output that satisfies want
// under reg's matching rules, best score first; ties break by descending
// quality and then by entity GUID (deterministic). A profile with several
// matching outputs appears once, at its best score.
//
// The candidates point at the stored profiles, which are frozen and shared:
// callers read them and hand them on read-only, as a Range's query answers
// do; code that may write one gets a Clone. The slice itself is the caller's.
//
// Only the output-type buckets that match want are visited, each type is
// graded once, and a single matching bucket is already in result order.
func (m *Manager) FindProviders(want ctxtype.Type, reg *ctxtype.Registry) []Candidate {
	m.mu.RLock()
	out, ok := m.findProvidersLocked(want, reg, false)
	m.mu.RUnlock()
	if ok {
		return out
	}
	// A matching bucket changed since it was last ordered: order it under
	// the write lock and answer from there.
	m.mu.Lock()
	defer m.mu.Unlock()
	out, _ = m.findProvidersLocked(want, reg, true)
	return out
}

// findProvidersLocked answers FindProviders under m.mu. Ordering a bucket
// writes it, so without the write lock (order false) it gives up, reporting
// false, on the first matching bucket that needs ordering.
func (m *Manager) findProvidersLocked(want ctxtype.Type, reg *ctxtype.Registry, order bool) ([]Candidate, bool) {
	type bucketHit struct {
		profiles []*Profile
		score    int
	}
	var hitBuf [4]bucketHit
	hits := hitBuf[:0]
	n := 0
	for t, b := range m.byOutput {
		s := matchScore(t, want, reg)
		if s == 0 {
			continue
		}
		if !b.ordered {
			if !order {
				return nil, false
			}
			m.orderLocked(b)
		}
		hits = append(hits, bucketHit{profiles: b.profiles, score: s})
		n += len(b.profiles)
	}
	if n == 0 {
		return nil, true
	}
	out := make([]Candidate, 0, n)
	multi := false // some match declares several outputs
	for _, h := range hits {
		for _, p := range h.profiles {
			multi = multi || len(p.Outputs) > 1
			out = append(out, Candidate{Profile: p, Score: h.score})
		}
	}
	if len(hits) == 1 {
		return out, true
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Score != b.Score {
			return b.Score - a.Score
		}
		if a.Profile.Quality != b.Profile.Quality {
			if a.Profile.Quality > b.Profile.Quality {
				return -1
			}
			return 1
		}
		return guid.Compare(a.Profile.Entity, b.Profile.Entity)
	})
	if !multi {
		return out, true
	}
	// A profile listed in several matching buckets keeps its first, and so
	// best-scored, place.
	seen := make(map[guid.GUID]struct{}, len(out))
	kept := out[:0]
	for _, c := range out {
		if _, dup := seen[c.Profile.Entity]; dup {
			continue
		}
		seen[c.Profile.Entity] = struct{}{}
		kept = append(kept, c)
	}
	clear(out[len(kept):])
	return kept, true
}

// FindByEntityType returns, in entity GUID order, the profiles advertising
// the interface name or carrying the attribute kind=name, each once. Like
// FindProviders it returns the stored profiles, frozen and shared, in a
// slice that is the caller's.
func (m *Manager) FindByEntityType(name string) []*Profile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.byEntityType[name])
}
