// Package mediator implements the Event Mediator Context Utility (paper,
// Section 3.1): "manages the establishment, maintenance and removal of event
// subscriptions between Context Entities and Context Aware Applications."
//
// The Mediator wraps the lock-striped, index-dispatched event bus
// (internal/eventbus) with the one table the rest of a Range needs: live
// subscriptions by id. The table holds the bus's own Subscription, which
// keeps the owner, filter and source set it was made with, so a Record is
// rendered from it on demand and nothing is booked twice. A fan-in
// consumer input is one subscription whose record carries the set of
// producers it accepts (Record.Sources): an immutable guid.Sorted, which
// the caller, the bus and every Record share uncopied.
//
// The table is striped by subscription id across as many lock shards as
// the bus underneath, so subscribe and cancel from unrelated entities never
// serialise on one mutex. The configuration runtime keeps the ids of the
// subscriptions it wired and cancels them one by one. Departure of an
// entity (Section 3.4) is the one removal by owner: CancelOwned scans the
// table once, claiming the owner's entries under each stripe lock and
// cancelling them outside it. Departures are rare next to subscribes and
// cancels, so an owner index would cost every subscription to speed up the
// rarest path.
//
// A Range runs eventbus.DefaultShards lock stripes; WithShards sets another
// count. Dispatch observability (per-shard counters, index-hit ratio)
// flows back up through Stats, ShardStats and IndexHitRatio.
package mediator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/eventbus"
	"sci/internal/guid"
	"sci/internal/metrics"
)

// Record describes one live subscription.
type Record struct {
	// ID is the subscription identifier.
	ID guid.GUID
	// Owner is the subscribing entity (CE or CAA).
	Owner guid.GUID
	// Filter selects the events delivered.
	Filter event.Filter
	// Sources, when non-empty, is the set of producers the subscription
	// accepts on top of Filter (SubOptions.Sources), shared as it is.
	Sources guid.Sorted
	// OneShot marks one-time subscriptions.
	OneShot bool
}

// record renders the Record of a bus subscription.
func record(s *eventbus.Subscription) Record {
	return Record{ID: s.ID(), Owner: s.Owner(), Filter: s.Filter(), Sources: s.Sources(), OneShot: s.OneShot()}
}

// subShard is one stripe of the subscription table.
type subShard struct {
	mu   sync.Mutex
	subs map[guid.GUID]*eventbus.Subscription // guarded by mu
}

// Mediator manages a Range's event subscriptions. Construct with New.
type Mediator struct {
	bus *eventbus.Bus

	closed atomic.Bool
	mask   uint32
	shards []*subShard
}

// ErrUnknownSubscription reports an id with no live subscription.
var ErrUnknownSubscription = errors.New("mediator: unknown subscription")

// Option configures a Mediator.
type Option func(*config)

type config struct {
	shards int
	quota  *eventbus.Quota
}

// WithShards sets the lock-stripe count for both the underlying bus and the
// Mediator's own subscription table (0 = default).
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithQuota enables per-publisher admission control on the underlying bus.
func WithQuota(q eventbus.Quota) Option {
	return func(c *config) { c.quota = &q }
}

// New builds a Mediator over a fresh bus. reg may be nil (no semantic
// equivalence in filter matching).
func New(reg *ctxtype.Registry, opts ...Option) *Mediator {
	var c config
	for _, o := range opts {
		o(&c)
	}
	var busOpts []eventbus.Option
	if c.shards > 0 {
		busOpts = append(busOpts, eventbus.WithShards(c.shards))
	}
	if c.quota != nil {
		busOpts = append(busOpts, eventbus.WithQuota(*c.quota))
	}
	bus := eventbus.New(reg, busOpts...)
	n := bus.Shards()
	m := &Mediator{bus: bus, mask: uint32(n - 1), shards: make([]*subShard, n)}
	for i := range m.shards {
		m.shards[i] = &subShard{subs: make(map[guid.GUID]*eventbus.Subscription)}
	}
	return m
}

// shard returns the table stripe of id. Byte 0 is the kind tag (constant
// within a population of ids), so hash the random bytes, like the bus.
func (m *Mediator) shard(id guid.GUID) *subShard {
	return m.shards[binary.BigEndian.Uint32(id[1:5])&m.mask]
}

// SubOptions configures Subscribe.
type SubOptions struct {
	// OneShot cancels the subscription after first delivery (the paper's
	// one-time subscription query mode).
	OneShot bool
	// QueueLen overrides the delivery queue capacity.
	QueueLen int
	// Sources, when non-empty, restricts delivery to events produced by one
	// of these entities (eventbus.WithSources): one subscription serves a
	// consumer input fed by several producers. The bus and the record keep
	// the set as it is. It cannot be combined with a filter that names a
	// Source.
	Sources guid.Sorted
}

// Subscribe establishes a subscription for owner. The handler runs on a
// dedicated delivery goroutine, which the bus starts at the subscription's
// first event: a subscription that never receives one runs no goroutine.
func (m *Mediator) Subscribe(owner guid.GUID, f event.Filter, h func(event.Event), opts SubOptions) (Record, error) {
	if h == nil {
		return Record{}, errors.New("mediator: nil handler")
	}
	return m.subscribe(owner, f, h, nil, opts)
}

// SubscribeBatch establishes a subscription whose handler receives every
// event queued since its last wakeup as one slice, for consumers that can
// amortise per-event costs. The remote-delivery edges consume through it:
// configuration root delivery, the Range Service's remote proxies and the
// SCINET fabric's cross-range forwarding tap all take a burst as one slice,
// so their outbound coalescer lock is acquired once per run.
// The slice may be a run shared with other subscribers: it is read-only
// and must not be retained (eventbus.BatchHandler).
func (m *Mediator) SubscribeBatch(owner guid.GUID, f event.Filter, h func([]event.Event), opts SubOptions) (Record, error) {
	if h == nil {
		return Record{}, errors.New("mediator: nil handler")
	}
	return m.subscribe(owner, f, nil, h, opts)
}

// subscribe registers exactly one of h (per event) and bh (per batch).
func (m *Mediator) subscribe(owner guid.GUID, f event.Filter, h eventbus.Handler, bh eventbus.BatchHandler, opts SubOptions) (Record, error) {
	if owner.IsNil() {
		return Record{}, errors.New("mediator: nil owner")
	}
	var optBuf [4]eventbus.SubOption
	busOpts := append(optBuf[:0], eventbus.WithOwner(owner), eventbus.WithSources(opts.Sources))
	if opts.OneShot {
		busOpts = append(busOpts, eventbus.OneShot())
	}
	if opts.QueueLen > 0 {
		busOpts = append(busOpts, eventbus.WithQueueLen(opts.QueueLen))
	}

	// ready hands a one-shot's cleanup its id once the entry is in the
	// table: the single delivery can fire before Subscribe returns, and
	// removing the entry before it exists would leave a stale one behind.
	// Only a one-shot subscription cleans up after itself, so only it needs
	// one.
	var ready chan guid.GUID
	var sub *eventbus.Subscription
	var err error
	switch {
	case opts.OneShot:
		ready = make(chan guid.GUID, 1)
		sub, err = m.bus.SubscribeBatch(f, func(events []event.Event) {
			if h != nil {
				h(events[0])
			} else {
				bh(events)
			}
			m.remove(<-ready)
		}, busOpts...)
	case h != nil:
		sub, err = m.bus.Subscribe(f, h, busOpts...)
	default:
		sub, err = m.bus.SubscribeBatch(f, bh, busOpts...)
	}
	if err != nil {
		return Record{}, fmt.Errorf("mediator: %w", err)
	}
	id := sub.ID()
	sh := m.shard(id)
	sh.mu.Lock()
	// Re-checked under the stripe lock: Close sets the flag before sweeping
	// the stripes, so either we observe it here or Close observes us there.
	closed := m.closed.Load()
	if !closed {
		sh.subs[id] = sub
	}
	sh.mu.Unlock()
	if ready != nil {
		ready <- id
	}
	if closed {
		sub.Cancel()
		return Record{}, fmt.Errorf("mediator: %w", eventbus.ErrClosed)
	}
	return record(sub), nil
}

// remove deletes id from the table and returns its subscription, or nil
// when the id was unknown or a concurrent caller removed it first.
func (m *Mediator) remove(id guid.GUID) *eventbus.Subscription {
	sh := m.shard(id)
	sh.mu.Lock()
	sub := sh.subs[id]
	delete(sh.subs, id)
	sh.mu.Unlock()
	return sub
}

// Publish dispatches an event to all matching subscriptions.
func (m *Mediator) Publish(e event.Event) error {
	return m.bus.Publish(e)
}

// PublishAll dispatches a batch of events in one call; the bus resolves its
// subscription index once per run of same-type events and appends each
// subscriber's share of a run under a single ring-buffer lock acquisition.
func (m *Mediator) PublishAll(events []event.Event) error {
	return m.bus.PublishAll(events)
}

// PublishAllOwned is PublishAll with ownership transfer: the slice is
// retained and shared read-only with subscriber rings, so the caller must
// never write it again; reading it stays safe. Use from pipelines that
// already hold a slice nobody will write.
func (m *Mediator) PublishAllOwned(events []event.Event) error {
	return m.bus.PublishAllOwned(events)
}

// PublishAllOwnedFrom is PublishAllOwned with an explicit drop-attribution
// key: events of this batch later discarded from full subscription queues
// are charged to pub in the Drops ledger instead of their own Source — the
// wire and overlay ingest paths pass the sending endpoint so credit acks
// can name the link responsible.
func (m *Mediator) PublishAllOwnedFrom(pub guid.GUID, events []event.Event) error {
	return m.bus.PublishAllOwnedFrom(pub, events)
}

// Cancel removes one subscription.
func (m *Mediator) Cancel(id guid.GUID) error {
	sub := m.remove(id)
	if sub == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSubscription, id.Short())
	}
	sub.Cancel()
	return nil
}

// CancelOwned removes every subscription owned by entity (departure
// handling) and returns the number cancelled. It scans the table once:
// departure is rare, so no owner index is kept for it.
func (m *Mediator) CancelOwned(entity guid.GUID) int {
	var owned []*eventbus.Subscription
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, sub := range sh.subs {
			if sub.Owner() == entity {
				owned = append(owned, sub)
				delete(sh.subs, id)
			}
		}
		sh.mu.Unlock()
	}
	for _, sub := range owned {
		sub.Cancel()
	}
	return len(owned)
}

// Get returns the record for a live subscription.
func (m *Mediator) Get(id guid.GUID) (Record, bool) {
	sh := m.shard(id)
	sh.mu.Lock()
	sub, ok := sh.subs[id]
	sh.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	return record(sub), true
}

// Records returns all live subscription records, ordered by id.
func (m *Mediator) Records() []Record {
	var out []Record
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, sub := range sh.subs {
			out = append(out, record(sub))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return guid.Less(out[i].ID, out[j].ID) })
	return out
}

// Len returns the number of live subscriptions.
func (m *Mediator) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.subs)
		sh.mu.Unlock()
	}
	return n
}

// Stats exposes the underlying bus counters.
func (m *Mediator) Stats() eventbus.Stats {
	return m.bus.Stats()
}

// ShardStats exposes the bus's per-stripe dispatch counters.
func (m *Mediator) ShardStats() []eventbus.ShardStats {
	return m.bus.ShardStats()
}

// Drops exposes the bus's ledger of events discarded from full queues,
// each charged to its publisher or ingest endpoint.
func (m *Mediator) Drops() *metrics.Ledger { return m.bus.Drops() }

// QuotaRejects exposes the bus's ledger of events admission control
// refused, each charged to its publisher.
func (m *Mediator) QuotaRejects() *metrics.Ledger { return m.bus.QuotaRejects() }

// IndexHitRatio reports the fraction of dispatch work the bus resolved
// through its exact-pattern index (1 = no wildcard scanning).
func (m *Mediator) IndexHitRatio() float64 {
	return m.bus.IndexHitRatio()
}

// Close tears down the bus and all subscriptions.
func (m *Mediator) Close() {
	m.closed.Store(true)
	for _, sh := range m.shards {
		sh.mu.Lock()
		clear(sh.subs)
		sh.mu.Unlock()
	}
	m.bus.Close()
}
