// Package mediator implements the Event Mediator Context Utility (paper,
// Section 3.1): "manages the establishment, maintenance and removal of event
// subscriptions between Context Entities and Context Aware Applications."
//
// The Mediator wraps the lock-striped, index-dispatched event bus
// (internal/eventbus) with the bookkeeping the rest of a Range needs. Every
// live subscription is recorded two ways: in the primary table by
// subscription id, and in an owner index (who subscribed). The owner index
// makes the bulk-teardown path of an entity departing its Range (Section
// 3.4) O(subscriptions removed) instead of a scan of every record. The
// configuration runtime keeps the ids of the subscriptions it wired and
// cancels them one by one, so the Mediator needs no index of its own for
// configurations. A fan-in consumer input is one subscription whose record
// carries the set of producers it accepts (Record.Sources): an immutable
// guid.Sorted, which the caller, the bus and every Record share uncopied.
//
// The owner index is an intrusive list per owner: each subscription's
// entry holds a slot in its owner stripe's link array, an owner's slots
// are chained, and the owner map holds the first. Freed slots are reused,
// so linking and unlinking are O(1) and allocate nothing in steady state.
//
// The bookkeeping is striped across lock shards exactly like the bus
// underneath: the primary table shards by subscription id and the owner
// index by owner id, so registration churn from unrelated entities never
// serialises on one mutex. The primary table is the source of truth: a
// subscription joins and leaves its owner's list after the table, and a
// removal through the owner index claims the table entry first.
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

// recShard is one stripe of the primary subscription table.
type recShard struct {
	mu   sync.Mutex
	recs map[guid.GUID]*liveSub
}

// indexShard is one stripe of the owner index: a list of entries per
// owner, chained through links.
type indexShard struct {
	mu    sync.Mutex
	heads map[guid.GUID]int32 // guarded by mu; owner → its first slot
	links []ownerLink         // guarded by mu; slots, reused through free
	free  int32               // guarded by mu; first free slot (chained through next), or -1
}

// ownerLink is one slot of an owner list: the entry it holds (nil while
// free) and the slots of its neighbours, -1 at either end.
type ownerLink struct {
	ls         *liveSub
	prev, next int32
}

// Mediator manages a Range's event subscriptions. Construct with New.
type Mediator struct {
	bus *eventbus.Bus

	closed atomic.Bool
	mask   uint32
	recs   []*recShard
	owners []*indexShard
}

type liveSub struct {
	rec Record
	sub *eventbus.Subscription
	// slot and dropped belong to the owner index, under its stripe's lock.
	// slot is the entry's slot in links while links[slot].ls is this entry;
	// dropped marks an entry removed before it was linked, which link then
	// skips.
	slot    int32
	dropped bool
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
// Mediator's own record bookkeeping (0 = default).
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
	m := &Mediator{
		bus:    bus,
		mask:   uint32(n - 1),
		recs:   make([]*recShard, n),
		owners: make([]*indexShard, n),
	}
	for i := 0; i < n; i++ {
		m.recs[i] = &recShard{recs: make(map[guid.GUID]*liveSub)}
		m.owners[i] = &indexShard{heads: make(map[guid.GUID]int32), free: -1}
	}
	return m
}

// stripe hashes a GUID to a shard index. Byte 0 is the kind tag (constant
// within a population of ids), so hash the random bytes, like the bus.
func (m *Mediator) stripe(id guid.GUID) uint32 {
	return binary.BigEndian.Uint32(id[1:5]) & m.mask
}

func (m *Mediator) recShard(id guid.GUID) *recShard { return m.recs[m.stripe(id)] }

func (m *Mediator) ownerShard(owner guid.GUID) *indexShard { return m.owners[m.stripe(owner)] }

// link puts ls at the head of its owner's list.
func (is *indexShard) link(ls *liveSub) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if ls.dropped {
		return
	}
	slot := is.free
	if slot < 0 {
		slot = int32(len(is.links))
		is.links = append(is.links, ownerLink{})
	} else {
		is.free = is.links[slot].next
	}
	next, ok := is.heads[ls.rec.Owner]
	if !ok {
		next = -1
	} else {
		is.links[next].prev = slot
	}
	is.links[slot] = ownerLink{ls: ls, prev: -1, next: next}
	is.heads[ls.rec.Owner] = slot
	ls.slot = slot
}

// unlink takes ls, removed from the primary table, off its owner's list,
// unless CancelOwned or Close already did. One not linked yet never will be.
func (is *indexShard) unlink(ls *liveSub) {
	is.mu.Lock()
	if int(ls.slot) < len(is.links) && is.links[ls.slot].ls == ls {
		is.unlinkLocked(ls.slot)
	}
	ls.dropped = true
	is.mu.Unlock()
}

// unlinkLocked takes the entry in slot off its owner's list and frees the
// slot.
func (is *indexShard) unlinkLocked(slot int32) {
	l := is.links[slot]
	switch {
	case l.prev >= 0:
		is.links[l.prev].next = l.next
	case l.next >= 0:
		is.heads[l.ls.rec.Owner] = l.next
	default:
		delete(is.heads, l.ls.rec.Owner)
	}
	if l.next >= 0 {
		is.links[l.next].prev = l.prev
	}
	is.links[slot] = ownerLink{prev: -1, next: is.free}
	is.free = slot
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

	ls := &liveSub{rec: Record{Owner: owner, Filter: f, Sources: opts.Sources, OneShot: opts.OneShot}}
	// ready gates the one-shot cleanup on the entry having been recorded:
	// the single delivery can fire before Subscribe returns, and removing
	// the entry before it exists would leave a stale one behind. Only a
	// one-shot subscription cleans up after itself, so only it needs one.
	var ready chan struct{}
	var sub *eventbus.Subscription
	var err error
	switch {
	case opts.OneShot:
		ready = make(chan struct{})
		sub, err = m.bus.SubscribeBatch(f, func(events []event.Event) {
			if h != nil {
				h(events[0])
			} else {
				bh(events)
			}
			<-ready
			m.remove(ls.rec.ID)
		}, busOpts...)
	case h != nil:
		sub, err = m.bus.Subscribe(f, h, busOpts...)
	default:
		sub, err = m.bus.SubscribeBatch(f, bh, busOpts...)
	}
	if err != nil {
		return Record{}, fmt.Errorf("mediator: %w", err)
	}
	ls.rec.ID, ls.sub = sub.ID(), sub
	rs := m.recShard(ls.rec.ID)
	rs.mu.Lock()
	// Re-checked under the stripe lock: Close sets the flag before sweeping
	// the stripes, so either we observe it here or Close observes us there.
	if m.closed.Load() {
		rs.mu.Unlock()
		if ready != nil {
			close(ready)
		}
		sub.Cancel()
		return Record{}, fmt.Errorf("mediator: %w", eventbus.ErrClosed)
	}
	rs.recs[ls.rec.ID] = ls
	rs.mu.Unlock()
	m.ownerShard(owner).link(ls)
	if ready != nil {
		close(ready)
	}
	return ls.rec, nil
}

// remove deletes id from the primary table (first remover wins) and then
// from the owner index. It returns the removed entry, or nil when
// the id was unknown or already removed by a concurrent caller.
func (m *Mediator) remove(id guid.GUID) *liveSub {
	rs := m.recShard(id)
	rs.mu.Lock()
	ls, ok := rs.recs[id]
	if ok {
		delete(rs.recs, id)
	}
	rs.mu.Unlock()
	if !ok {
		return nil
	}
	m.ownerShard(ls.rec.Owner).unlink(ls)
	return ls
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
	ls := m.remove(id)
	if ls == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSubscription, id.Short())
	}
	ls.sub.Cancel()
	return nil
}

// CancelOwned removes every subscription owned by entity (departure
// handling); returns the number cancelled. The owner index makes this
// proportional to the entity's own subscriptions, not the Range's total.
func (m *Mediator) CancelOwned(entity guid.GUID) int {
	is := m.ownerShard(entity)
	var owned []guid.GUID
	is.mu.Lock()
	for slot, ok := is.heads[entity]; ok; slot, ok = is.heads[entity] {
		owned = append(owned, is.links[slot].ls.rec.ID)
		is.unlinkLocked(slot)
	}
	is.mu.Unlock()
	n := 0
	for _, id := range owned {
		if ls := m.remove(id); ls != nil {
			ls.sub.Cancel()
			n++
		}
	}
	return n
}

// Get returns the record for a live subscription.
func (m *Mediator) Get(id guid.GUID) (Record, bool) {
	rs := m.recShard(id)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ls, ok := rs.recs[id]
	if !ok {
		return Record{}, false
	}
	return ls.rec, true
}

// Records returns all live subscription records, ordered by id.
func (m *Mediator) Records() []Record {
	var out []Record
	for _, rs := range m.recs {
		rs.mu.Lock()
		for _, ls := range rs.recs {
			out = append(out, ls.rec)
		}
		rs.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return guid.Less(out[i].ID, out[j].ID) })
	return out
}

// OwnedBy returns the live records owned by entity, ordered by id. A
// record a concurrent Cancel is removing may still be among them.
func (m *Mediator) OwnedBy(entity guid.GUID) []Record {
	is := m.ownerShard(entity)
	var out []Record
	is.mu.Lock()
	for slot, ok := is.heads[entity]; ok && slot >= 0; slot = is.links[slot].next {
		out = append(out, is.links[slot].ls.rec)
	}
	is.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return guid.Less(out[i].ID, out[j].ID) })
	return out
}

// Len returns the number of live subscriptions.
func (m *Mediator) Len() int {
	n := 0
	for _, rs := range m.recs {
		rs.mu.Lock()
		n += len(rs.recs)
		rs.mu.Unlock()
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
	for _, rs := range m.recs {
		rs.mu.Lock()
		rs.recs = make(map[guid.GUID]*liveSub)
		rs.mu.Unlock()
	}
	for _, is := range m.owners {
		is.mu.Lock()
		is.heads, is.links, is.free = make(map[guid.GUID]int32), nil, -1
		is.mu.Unlock()
	}
	m.bus.Close()
}
