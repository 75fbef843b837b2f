// Package ctxtype implements SCI's context type system: the vocabulary in
// which Context Entity Profiles declare their inputs and outputs and in
// which queries express the information they need.
//
// Section 2 of the paper criticises iQueue for matching data sources only
// syntactically: "an iQueue application that has been developed to request
// location data from a network of door sensors cannot take advantage of an
// environment that provides location information using a wireless detection
// scheme". SCI's stated requirement is "flexible and extensible
// representation and retrieval of contextual information". This package
// therefore models context types as dotted hierarchical names with declared
// semantic-equivalence classes and registered converters, so the Query
// Resolver can bind a request for "location.position" to a door-sensor
// provider, a W-LAN provider, or anything registered as semantically
// equivalent — and the configuration runtime can transparently rebind
// between them when providers fail (experiment E9).
package ctxtype

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Type names a kind of contextual information, e.g. "location.position",
// "location.sighting.door", "path.route", "printer.status". Names are
// dotted, lower-case, and hierarchical: a provider of "location.sighting.door"
// also satisfies a request for the ancestor "location.sighting".
type Type string

// Wildcard matches any type in filters.
const Wildcard Type = "*"

// ErrBadType reports a malformed type name.
var ErrBadType = errors.New("ctxtype: malformed type name")

// Validate checks that t is a well-formed dotted name: non-empty, lower-case
// segments of letters/digits/hyphens separated by single dots. It allocates
// nothing on success — it runs inside every event publish.
func (t Type) Validate() error {
	if t == Wildcard {
		return nil
	}
	if t == "" {
		return fmt.Errorf("%w: empty", ErrBadType)
	}
	segLen := 0
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c == '.' {
			if segLen == 0 {
				return fmt.Errorf("%w: %q has empty segment", ErrBadType, t)
			}
			segLen = 0
			continue
		}
		ok := c == '-' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
		if !ok {
			// Decode the full rune for the message; multi-byte characters
			// are invalid but should be reported whole, not byte by byte.
			r, _ := utf8.DecodeRuneInString(string(t)[i:])
			return fmt.Errorf("%w: %q contains %q", ErrBadType, t, r)
		}
		segLen++
	}
	if segLen == 0 {
		return fmt.Errorf("%w: %q has empty segment", ErrBadType, t)
	}
	return nil
}

// Parent returns the immediate ancestor of t ("a.b.c" → "a.b") or "" when t
// is a root segment.
func (t Type) Parent() Type {
	i := strings.LastIndexByte(string(t), '.')
	if i < 0 {
		return ""
	}
	return t[:i]
}

// HasAncestor reports whether anc is t itself or a proper ancestor of t in
// the dotted hierarchy.
func (t Type) HasAncestor(anc Type) bool {
	if anc == Wildcard || t == anc {
		return true
	}
	// Boundary check instead of HasPrefix(t, anc+"."): this runs per event
	// per residual subscription, and the concatenation would allocate.
	return len(t) > len(anc) && t[len(anc)] == '.' &&
		strings.HasPrefix(string(t), string(anc))
}

// Depth returns the number of segments in the name.
func (t Type) Depth() int {
	if t == "" {
		return 0
	}
	return strings.Count(string(t), ".") + 1
}

// Core type vocabulary used by the built-in entities, sensors and the CAPA
// scenario. Applications may register arbitrary additional types.
const (
	// Location family. Sightings are raw sensor observations; position is
	// interpreted location in some model (see internal/location).
	LocationPosition     Type = "location.position"
	LocationSighting     Type = "location.sighting"
	LocationSightingDoor Type = "location.sighting.door"
	LocationSightingWLAN Type = "location.sighting.wlan"
	PathRoute            Type = "path.route"

	// Environmental measurements.
	TemperatureCelsius Type = "temperature.celsius"
	TemperatureKelvin  Type = "temperature.kelvin"

	// Device/service state.
	PrinterStatus Type = "printer.status"
	PrinterQueue  Type = "printer.queue"

	// Entity lifecycle announcements produced by Range Services and the
	// Registrar (arrival into / departure from a Range, Section 3.4).
	EntityArrival   Type = "entity.arrival"
	EntityDeparture Type = "entity.departure"

	// Profile and advertisement updates.
	ProfileUpdate Type = "profile.update"
)

// Converter transforms a payload of one type into another, e.g. Kelvin to
// Celsius or a door sighting to a position. Payloads are the generic JSON
// object form used by internal/event.
type Converter func(payload map[string]any) (map[string]any, error)

// Registry holds the known types, their semantic-equivalence classes, and
// converters. A Registry is safe for concurrent use. The zero value is
// usable.
type Registry struct {
	mu      sync.RWMutex
	types   map[Type]struct{}
	equiv   map[Type]Type         // each class member → its class's root, one step
	conv    map[[2]Type]Converter // exact-pair converters
	quality map[Type]float64      // default quality score of a representation

	// gen counts equivalence-class merges and quality changes. Dispatch-index
	// caches (the event bus's lookup-key memo) key their entries on it so a
	// DeclareEquivalent issued after subscriptions exist still reaches them;
	// the resolver's cache keys on it because quality breaks ties between
	// candidate providers.
	gen atomic.Uint64
}

// Generation returns the registry's mutation counter. It changes when a
// DeclareEquivalent call merges two previously distinct classes and when
// SetQuality changes a type's quality, so a cache keyed on it never serves
// stale equivalence or quality answers.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// NewRegistry returns a Registry pre-loaded with the core vocabulary and the
// equivalences/conversions the built-in components rely on:
//
//   - location.sighting.door ≡ location.sighting.wlan (both are sightings and
//     can ground a location.position request),
//   - temperature.kelvin → temperature.celsius converter.
func NewRegistry() *Registry {
	r := &Registry{}
	for _, t := range []Type{
		LocationPosition, LocationSighting, LocationSightingDoor,
		LocationSightingWLAN, PathRoute, TemperatureCelsius,
		TemperatureKelvin, PrinterStatus, PrinterQueue, EntityArrival,
		EntityDeparture, ProfileUpdate,
	} {
		if err := r.Register(t); err != nil {
			panic(err) // core vocabulary is statically well-formed
		}
	}
	if err := r.DeclareEquivalent(LocationSightingDoor, LocationSightingWLAN); err != nil {
		panic(err)
	}
	if err := r.RegisterConverter(TemperatureKelvin, TemperatureCelsius,
		func(p map[string]any) (map[string]any, error) {
			k, ok := p["value"].(float64)
			if !ok {
				return nil, fmt.Errorf("ctxtype: kelvin payload missing numeric value")
			}
			return map[string]any{"value": k - 273.15, "unit": "celsius"}, nil
		}); err != nil {
		panic(err)
	}
	r.SetQuality(LocationSightingDoor, 0.9) // precise point observation
	r.SetQuality(LocationSightingWLAN, 0.6) // coarse cell-level observation
	return r
}

// Register adds a type to the registry. Registering an already-known type is
// a no-op.
func (r *Registry) Register(t Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.types == nil {
		r.types = make(map[Type]struct{})
	}
	r.types[t] = struct{}{}
	return nil
}

// Known reports whether t has been registered.
func (r *Registry) Known(t Type) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.types[t]
	return ok
}

// Types returns all registered types, sorted.
func (r *Registry) Types() []Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Type, 0, len(r.types))
	for t := range r.types {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeclareEquivalent records that a and b belong to the same semantic
// equivalence class: a provider of either satisfies a request for the other.
// Equivalence is reflexive, symmetric and transitive (union-find).
func (r *Registry) DeclareEquivalent(a, b Type) error {
	for _, t := range []Type{a, b} {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.equiv == nil {
		r.equiv = make(map[Type]Type)
	}
	ra, rb := r.findLocked(a), r.findLocked(b)
	if ra != rb {
		// Union by lexicographic order for determinism. Every member of the
		// absorbed class then points at the new root directly, so a find
		// is one map probe and never writes: readers share the read lock.
		root, old := ra, rb
		if rb < ra {
			root, old = rb, ra
		}
		for u, p := range r.equiv {
			if p == old {
				r.equiv[u] = root
			}
		}
		r.equiv[old] = root
		r.gen.Add(1)
	}
	return nil
}

// EquivSet returns every type in t's declared equivalence class, including
// t itself when the class is non-trivial, sorted. Unlike ClassOf it also
// reports class members that were named in DeclareEquivalent without being
// registered, which is what exact-index dispatch needs: a subscription may
// filter on such a type. A type with no declared equivalences yields nil.
func (r *Registry) EquivSet(t Type) []Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.equiv == nil {
		return nil
	}
	root := r.findLocked(t)
	members := make([]Type, 0, 4)
	if root != t || r.inSomeClassLocked(t) {
		members = append(members, root)
	}
	for u := range r.equiv {
		if u != root && r.findLocked(u) == root {
			members = append(members, u)
		}
	}
	if len(members) <= 1 {
		return nil
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

// inSomeClassLocked reports whether t participates in any declared
// equivalence, either as a recorded child or as the root of one.
func (r *Registry) inSomeClassLocked(t Type) bool {
	if _, ok := r.equiv[t]; ok {
		return true
	}
	for _, parent := range r.equiv {
		if parent == t {
			return true
		}
	}
	return false
}

// Equivalent reports whether a and b are in the same declared equivalence
// class (or are the same type).
func (r *Registry) Equivalent(a, b Type) bool {
	if a == b {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.findLocked(a) == r.findLocked(b)
}

// ClassOf returns all registered types in t's equivalence class, sorted;
// it always contains t itself if registered.
func (r *Registry) ClassOf(t Type) []Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	root := r.findLocked(t)
	var out []Type
	for u := range r.types {
		if r.findLocked(u) == root {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// findLocked returns the root of t's class (t itself when t is in none).
// DeclareEquivalent keeps every member pointing at its root, so it reads
// one entry and writes nothing; the read lock suffices.
func (r *Registry) findLocked(t Type) Type {
	if root, ok := r.equiv[t]; ok {
		return root
	}
	return t
}

// Satisfies reports whether a provider of got satisfies a request for want,
// under the three matching rules the resolver uses, in order of preference:
// exact match, hierarchical subsumption (got is a descendant of want), and
// declared semantic equivalence.
func (r *Registry) Satisfies(got, want Type) bool {
	if got == want || want == Wildcard {
		return true
	}
	if got.HasAncestor(want) {
		return true
	}
	return r.Equivalent(got, want)
}

// MatchScore grades how well got satisfies want: 3 exact, 2 subsumption,
// 1 equivalence, 0 no match. The resolver uses it to rank candidate
// providers before applying the query's Which clause.
func (r *Registry) MatchScore(got, want Type) int {
	switch {
	case got == want || want == Wildcard:
		return 3
	case got.HasAncestor(want):
		return 2
	case r.Equivalent(got, want):
		return 1
	default:
		return 0
	}
}

// RegisterConverter installs a payload converter from → to. Both types are
// implicitly registered.
func (r *Registry) RegisterConverter(from, to Type, c Converter) error {
	if c == nil {
		return errors.New("ctxtype: nil converter")
	}
	if err := r.Register(from); err != nil {
		return err
	}
	if err := r.Register(to); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conv == nil {
		r.conv = make(map[[2]Type]Converter)
	}
	r.conv[[2]Type{from, to}] = c
	return nil
}

// Convert transforms payload from one type to another. Identity conversions
// always succeed. Returns ErrNoConversion when no converter is registered.
func (r *Registry) Convert(from, to Type, payload map[string]any) (map[string]any, error) {
	if from == to {
		return payload, nil
	}
	r.mu.RLock()
	c, ok := r.conv[[2]Type{from, to}]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s → %s", ErrNoConversion, from, to)
	}
	return c(payload)
}

// ErrNoConversion indicates no converter is registered for the pair.
var ErrNoConversion = errors.New("ctxtype: no conversion registered")

// SetQuality records the default quality score (0..1] for a representation;
// used to break ties between equivalent providers (door sighting beats WLAN
// sighting for precision). A change of quality moves the Generation.
func (r *Registry) SetQuality(t Type, q float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.quality == nil {
		r.quality = make(map[Type]float64)
	}
	if old, ok := r.quality[t]; ok && old == q {
		return
	}
	r.quality[t] = q
	r.gen.Add(1)
}

// Quality returns the recorded quality for t, defaulting to 0.5.
func (r *Registry) Quality(t Type) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if q, ok := r.quality[t]; ok {
		return q
	}
	return 0.5
}
