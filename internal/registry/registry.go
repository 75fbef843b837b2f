// Package registry implements the Registrar Context Utility (paper,
// Section 3.1): "maintains an accurate view of all entities within the
// current Range. All CE's are registered within a range when they arrive and
// deregistered upon departure."
//
// Registrations are lease-based: entities renew their lease (the Range
// Service's heartbeats do this on their behalf); a missed lease expires the
// registration, which is how component failure is detected and surfaced to
// the configuration runtime (the paper's adaptivity requirement, experiment
// E8). Watchers receive arrival and departure notifications.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
)

// Registration is one entity's presence in a Range.
type Registration struct {
	// Entity is the registered entity's GUID.
	Entity guid.GUID `json:"entity"`
	// Kind caches the entity kind (also encoded in the GUID).
	Kind guid.Kind `json:"kind"`
	// Name is a human-readable label.
	Name string `json:"name"`
	// Expires is the lease deadline.
	Expires time.Time `json:"expires"`
}

// Reason classifies a departure.
type Reason int

// Departure reasons.
const (
	// ReasonDeregistered: the entity announced its departure (clean).
	ReasonDeregistered Reason = iota + 1
	// ReasonExpired: the lease lapsed (failure or silent departure).
	ReasonExpired
)

var reasonNames = [...]string{
	ReasonDeregistered: "deregistered",
	ReasonExpired:      "expired",
}

// String names the reason.
func (r Reason) String() string {
	if int(r) < len(reasonNames) && reasonNames[r] != "" {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Watcher observes arrivals and departures. Callbacks run synchronously on
// the mutating goroutine (Register/Deregister caller or the expiry sweep);
// they must be quick and must not call back into the Registrar.
type Watcher interface {
	OnArrival(Registration)
	OnDeparture(Registration, Reason)
}

// FuncWatcher adapts two funcs to Watcher; either may be nil.
type FuncWatcher struct {
	Arrival   func(Registration)
	Departure func(Registration, Reason)
}

// OnArrival implements Watcher.
func (w FuncWatcher) OnArrival(r Registration) {
	if w.Arrival != nil {
		w.Arrival(r)
	}
}

// OnDeparture implements Watcher.
func (w FuncWatcher) OnDeparture(r Registration, reason Reason) {
	if w.Departure != nil {
		w.Departure(r, reason)
	}
}

// Registrar tracks entity presence with leases. Construct with New.
type Registrar struct {
	clk      clock.Clock
	lease    time.Duration
	sweepGap time.Duration

	// mu is read-locked by Lookup and IsLive, which every query calls.
	mu      sync.RWMutex
	entries map[guid.GUID]Registration
	// gen moves, inside mu's write lock, when entries gains or loses an
	// entity; it is read without the lock.
	gen      atomic.Uint64
	watchers map[int]Watcher
	nextW    int
	sweep    clock.Timer
	closed   bool
}

// DefaultLease is the lease duration when Config.Lease is zero.
const DefaultLease = 30 * time.Second

// Config parameterises a Registrar.
type Config struct {
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Lease is the registration lifetime granted by Register/Renew.
	Lease time.Duration
	// SweepEvery is the expiry scan period; defaults to Lease/4.
	SweepEvery time.Duration
}

// Errors.
var (
	ErrClosed        = errors.New("registry: closed")
	ErrNotRegistered = errors.New("registry: entity not registered")
)

// New builds a Registrar and starts its expiry sweep.
func New(cfg Config) *Registrar {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.Lease / 4
	}
	r := &Registrar{
		clk:      cfg.Clock,
		lease:    cfg.Lease,
		sweepGap: cfg.SweepEvery,
		entries:  make(map[guid.GUID]Registration),
		watchers: make(map[int]Watcher),
	}
	r.gen.Store(1)
	r.mu.Lock()
	r.scheduleSweepLocked()
	r.mu.Unlock()
	return r
}

// Lease returns the configured lease duration (entities use it to pace
// renewals).
func (r *Registrar) Lease() time.Duration { return r.lease }

// Register adds (or refreshes) an entity. Re-registering an existing entity
// renews the lease without a second arrival notification.
func (r *Registrar) Register(entity guid.GUID, name string) (Registration, error) {
	if entity.IsNil() {
		return Registration{}, errors.New("registry: nil entity")
	}
	if name == "" {
		return Registration{}, errors.New("registry: empty name")
	}
	reg := Registration{
		Entity:  entity,
		Kind:    entity.Kind(),
		Name:    name,
		Expires: r.clk.Now().Add(r.lease),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Registration{}, ErrClosed
	}
	_, existed := r.entries[entity]
	r.entries[entity] = reg
	if !existed {
		r.gen.Add(1)
	}
	watchers := r.watcherListLocked()
	r.mu.Unlock()

	if !existed {
		for _, w := range watchers {
			w.OnArrival(reg)
		}
	}
	return reg, nil
}

// Renew extends the lease for entity.
func (r *Registrar) Renew(entity guid.GUID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	reg, ok := r.entries[entity]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, entity.Short())
	}
	reg.Expires = r.clk.Now().Add(r.lease)
	r.entries[entity] = reg
	return nil
}

// Deregister removes entity, notifying watchers with ReasonDeregistered.
func (r *Registrar) Deregister(entity guid.GUID) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	reg, ok := r.entries[entity]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRegistered, entity.Short())
	}
	delete(r.entries, entity)
	r.gen.Add(1)
	watchers := r.watcherListLocked()
	r.mu.Unlock()

	for _, w := range watchers {
		w.OnDeparture(reg, ReasonDeregistered)
	}
	return nil
}

// Lookup returns the registration for entity.
func (r *Registrar) Lookup(entity guid.GUID) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.entries[entity]
	return reg, ok
}

// IsLive reports whether entity is currently registered.
func (r *Registrar) IsLive(entity guid.GUID) bool {
	_, ok := r.Lookup(entity)
	return ok
}

// Generation counts changes of the live set: it moves when an entity
// arrives, is deregistered or expires, and not on Renew or on a repeated
// Register, which leave IsLive's answers as they were. It is never zero.
// The resolver's cache compares it to tell whether a cached resolution's
// liveness filter still holds.
func (r *Registrar) Generation() uint64 {
	return r.gen.Load()
}

// List returns all registrations ordered by entity GUID.
func (r *Registrar) List() []Registration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Registration, 0, len(r.entries))
	for _, reg := range r.entries {
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool {
		return guid.Less(out[i].Entity, out[j].Entity)
	})
	return out
}

// ListKind returns registrations of one kind, ordered by entity GUID.
func (r *Registrar) ListKind(k guid.Kind) []Registration {
	var out []Registration
	for _, reg := range r.List() {
		if reg.Kind == k {
			out = append(out, reg)
		}
	}
	return out
}

// Len returns the number of live registrations.
func (r *Registrar) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Watch adds a watcher; the returned cancel func removes it.
func (r *Registrar) Watch(w Watcher) (cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextW
	r.nextW++
	r.watchers[id] = w
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.watchers, id)
	}
}

// Close stops the expiry sweep and rejects further mutation.
func (r *Registrar) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	if r.sweep != nil {
		r.sweep.Stop()
	}
}

// ExpireNow runs one expiry pass immediately (tests and benchmarks).
func (r *Registrar) ExpireNow() {
	r.expire()
}

func (r *Registrar) scheduleSweepLocked() {
	if r.closed {
		return
	}
	r.sweep = r.clk.AfterFunc(r.sweepGap, func() {
		r.expire()
		r.mu.Lock()
		r.scheduleSweepLocked()
		r.mu.Unlock()
	})
}

func (r *Registrar) expire() {
	now := r.clk.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	var dead []Registration
	for id, reg := range r.entries {
		if !reg.Expires.After(now) {
			dead = append(dead, reg)
			delete(r.entries, id)
		}
	}
	if len(dead) > 0 {
		r.gen.Add(1)
	}
	watchers := r.watcherListLocked()
	r.mu.Unlock()

	sort.Slice(dead, func(i, j int) bool {
		return guid.Less(dead[i].Entity, dead[j].Entity)
	})
	for _, reg := range dead {
		for _, w := range watchers {
			w.OnDeparture(reg, ReasonExpired)
		}
	}
}

func (r *Registrar) watcherListLocked() []Watcher {
	out := make([]Watcher, 0, len(r.watchers))
	ids := make([]int, 0, len(r.watchers))
	for id := range r.watchers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, r.watchers[id])
	}
	return out
}
