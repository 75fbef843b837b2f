// Package entity implements the component model of the paper's Fig 4: the
// abstract Context Entity (CE) and Context Aware Application (CAA) classes
// that concrete components extend.
//
// "Both entities share the RegisterInterface in order to facilitate
// communication with a Range Service while CAA's include the
// ConsumeInterface for dealing with events (in response to a query). The
// ServiceInterface, implemented by the CE represents the 'well known'
// Advertisement interface. At the Concrete level, CE or CAA developers need
// only to deal with the service they provide or the events they receive."
//
// Base provides the shared plumbing (identity, profile, sequenced event
// emission); the operator CEs in operators.go are the reusable aggregation/
// interpretation components the Section 3.2 composition example is built
// from.
package entity

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/profile"
)

// Publisher is where an attached component emits its events — in a running
// Range, the Event Mediator.
type Publisher interface {
	Publish(event.Event) error
}

// Component is the RegisterInterface of Fig 4, shared by CEs and CAAs.
type Component interface {
	// ID returns the component's GUID.
	ID() guid.GUID
	// Profile returns the component's current profile.
	Profile() profile.Profile
}

// CE is a Context Entity: it may consume input events (when wired into a
// configuration), emit output events, and serve advertisement calls.
type CE interface {
	Component
	// Attach connects the CE to its Range's publisher. Called by the Range
	// Service on registration.
	Attach(pub Publisher)
	// Detach disconnects (departure).
	Detach()
	// HandleInput consumes one event delivered on a configuration edge.
	HandleInput(event.Event)
	// Serve handles an advertisement (ServiceInterface) call.
	Serve(op string, args map[string]any) (map[string]any, error)
}

// BatchInput is implemented by CEs that can absorb a whole run of
// configuration input events in one call. The configuration runtime wires
// such consumers through Mediator.SubscribeBatch, so a publish burst
// reaches them as one slice instead of one HandleInput call per event —
// the remote proxies in rangesvc use this to append a burst to their
// outbound wire coalescer under a single lock acquisition. An input fed by
// several producers is one subscription, so one run may mix producers (in
// publish order; tell them apart by Source). The slice may be a run shared
// with other subscribers: it is read-only and must not be retained.
type BatchInput interface {
	HandleInputAll([]event.Event)
}

// ErrNoService is returned by components without an advertisement.
var ErrNoService = errors.New("entity: no such service operation")

// ErrDetached is returned when emitting while unattached.
var ErrDetached = errors.New("entity: not attached to a range")

// Base supplies identity, profile storage and sequenced emission. Embed it
// in concrete CEs. Construct with NewBase.
type Base struct {
	id  guid.GUID
	clk clock.Clock

	mu   sync.Mutex
	prof profile.Profile
	pub  Publisher
	seq  uint64
	rng  guid.GUID // the Range currently hosting this component
}

// NewBase builds component plumbing. The profile's Entity field is forced
// to the generated id. clk may be nil (real clock).
func NewBase(kind guid.Kind, prof profile.Profile, clk clock.Clock) *Base {
	return NewBaseWithID(guid.New(kind), prof, clk)
}

// NewBaseWithID builds plumbing for a component whose identity was minted
// elsewhere — the Range Service uses it to build proxies standing in for
// remote components, which keep their own GUIDs.
func NewBaseWithID(id guid.GUID, prof profile.Profile, clk clock.Clock) *Base {
	if clk == nil {
		clk = clock.Real()
	}
	prof.Entity = id
	return &Base{id: id, clk: clk, prof: prof}
}

// ID implements Component.
func (b *Base) ID() guid.GUID { return b.id }

// Profile implements Component.
func (b *Base) Profile() profile.Profile {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.prof.Clone()
}

// UpdateProfile mutates the profile through fn (under the component lock).
func (b *Base) UpdateProfile(fn func(*profile.Profile)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(&b.prof)
	b.prof.Entity = b.id
}

// Attach implements CE.
func (b *Base) Attach(pub Publisher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pub = pub
}

// Detach implements CE.
func (b *Base) Detach() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pub = nil
}

// SetRange records the hosting Range's GUID (stamped onto emitted events).
func (b *Base) SetRange(rng guid.GUID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rng = rng
}

// Attached reports whether the component can emit.
func (b *Base) Attached() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pub != nil
}

// Emit publishes a typed event from this component with the next sequence
// number.
func (b *Base) Emit(t ctxtype.Type, subject guid.GUID, payload map[string]any) error {
	b.mu.Lock()
	pub := b.pub
	if pub == nil {
		b.mu.Unlock()
		return ErrDetached
	}
	b.seq++
	e := event.New(t, b.id, b.seq, b.clk.Now(), payload)
	e.Subject = subject
	e.Range = b.rng
	e.Quality = b.prof.Quality
	b.mu.Unlock()
	return pub.Publish(e)
}

// Clock returns the component's clock.
func (b *Base) Clock() clock.Clock { return b.clk }

// HandleInput implements CE as a no-op; operator CEs override.
func (b *Base) HandleInput(event.Event) {}

// Serve implements CE: no advertisement by default.
func (b *Base) Serve(op string, args map[string]any) (map[string]any, error) {
	return nil, fmt.Errorf("%w: %q", ErrNoService, op)
}

// CAA is the Context Aware Application base: a component that receives
// events in response to its queries. Construct with NewCAA.
type CAA struct {
	*Base

	mu      sync.Mutex
	handler func(event.Event)
	batch   func([]event.Event)
	inbox   []event.Event
}

// NewCAA builds a CAA base. handler may be nil, in which case events
// accumulate in an inbox drained by TakeEvents (convenient for tests and
// simple applications).
func NewCAA(name string, handler func(event.Event), clk clock.Clock) *CAA {
	base := NewBase(guid.KindApplication, profile.Profile{Name: name}, clk)
	return &CAA{Base: base, handler: handler}
}

// NewRemoteBatchCAA builds a CAA proxy whose ConsumeAll hands whole event
// runs to fn — the stand-in for remote applications whose deliveries flow
// through an outbound coalescer (rangesvc, scinet). The slice may be a run
// shared with other subscribers: fn must not write or retain it.
func NewRemoteBatchCAA(id guid.GUID, name string, fn func([]event.Event), clk clock.Clock) *CAA {
	base := NewBaseWithID(id, profile.Profile{Name: name}, clk)
	return &CAA{Base: base, batch: fn}
}

// Consume is the ConsumeInterface of Fig 4: it hands one event to the
// CAA's handler, or appends it to the inbox when the CAA has none.
func (c *CAA) Consume(e event.Event) {
	c.mu.Lock()
	h, bh := c.handler, c.batch
	if h == nil && bh == nil {
		c.inbox = append(c.inbox, e)
	}
	c.mu.Unlock()
	switch {
	case bh != nil:
		bh([]event.Event{e})
	case h != nil:
		h(e)
	}
}

// ConsumeAll delivers a run of events in one call: batch-handler CAAs get
// the whole slice, per-event handlers are invoked in order, and handler-less
// CAAs append the run to the inbox under a single lock acquisition. The
// slice may be a run shared with other subscribers: it is read-only, and
// batch handlers must not retain it.
func (c *CAA) ConsumeAll(events []event.Event) {
	if len(events) == 0 {
		return
	}
	c.mu.Lock()
	h, bh := c.handler, c.batch
	if h == nil && bh == nil {
		c.inbox = append(c.inbox, events...)
	}
	c.mu.Unlock()
	switch {
	case bh != nil:
		bh(events)
	case h != nil:
		for i := range events {
			h(events[i])
		}
	}
}

// TakeEvents drains and returns the inbox (handler-less CAAs).
func (c *CAA) TakeEvents() []event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.inbox
	c.inbox = nil
	return out
}

// PendingEvents returns the inbox length without draining.
func (c *CAA) PendingEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inbox)
}

var (
	_ Component = (*Base)(nil)
	_ CE        = (*Base)(nil)
)

// Sequenced returns the base's current sequence number (diagnostics).
func (b *Base) Sequenced() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Now is a convenience for concrete components.
func (b *Base) Now() time.Time { return b.clk.Now() }
