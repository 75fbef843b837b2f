// Package eventbus provides the in-process publish/subscribe fabric that a
// Range's Event Mediator is built on.
//
// The paper's hybrid communication model (Section 4) combines distributed
// events with point-to-point communication. Within one Range, all event
// traffic between Context Entities and Context Aware Applications flows
// through a Bus: producers publish typed events; subscribers receive the
// subset matching their Filter on a bounded queue serviced by a dedicated
// delivery goroutine, so one slow consumer can never stall producers or
// other consumers. A subscription's queue and its delivery goroutine are
// both started at its first event: a subscription that never receives one
// costs an index entry and nothing else.
//
// The bus dispatches and keeps no bookkeeping beyond its dispatch index: a
// Subscription carries its owner, filter and source set for whoever made
// it, and the Event Mediator (internal/mediator) keeps the table of live
// subscriptions by id, and with it every removal by owner.
//
// # Dispatch architecture
//
// Dispatch is a two-tier subscription index, lock-striped across a
// power-of-two number of shards (WithShards):
//
//   - The exact tier indexes every subscription whose filter names a
//     concrete context-type pattern, keyed by that pattern in the shard the
//     pattern hashes to. A publish resolves its target set by looking up the
//     event's type, each of its ancestors in the dotted hierarchy, and the
//     members of its declared semantic-equivalence class — a handful of O(1)
//     map probes whose cost is independent of the total number of
//     subscriptions. The per-event key set is memoised in a copy-on-write
//     cache invalidated by the type registry's equivalence generation. A
//     pattern's list is kept once its last subscription leaves (up to
//     maxKeyCacheTypes empty lists bus-wide), so subscribe-and-cancel churn
//     on one type neither re-inserts its key nor regrows its list. An empty
//     list matches nothing and is no pattern in ShardStats.
//   - The residual tier holds the remaining subscriptions — wildcard or
//     empty type patterns — which genuinely need per-event matching. Each
//     residual subscription lives in the shard its id hashes to; publishes
//     skip the residual scan entirely while the tier is empty.
//
// Because shards are independent, concurrent publishers on different
// context types never contend on a lock, and subscription churn in one
// shard does not serialise publishes through the others. Target slices are
// pooled, so a publish resolved purely through the exact index performs no
// allocation. Per-shard publish/deliver/drop counters and the bus-wide
// index-hit/residual-scan ratio (IndexHitRatio) make the index's
// effectiveness observable.
//
// # Batched delivery
//
// The pipeline is batch-native end to end, and events are shared, never
// copied, between publish and handler. PublishAll accepts a slice of events
// and walks it in runs of consecutive same-type events, resolving the index
// once per run and appending each subscriber's share of the run to its ring
// as one slice header under a single lock acquisition with one wakeup;
// Publish is a one-event run on the same path. Delivery loops take the run
// headers queued since the last wakeup out of the ring and read the runs in
// place: a Handler is called once per event, and a BatchHandler gets the
// whole backlog in one call — the shared run itself when one run is
// queued, so batch-aware consumers (SubscribeBatch) amortise their own
// downstream costs across the burst. A delivered run may be shared with
// other subscribers and with the publisher, so it is read-only.
package eventbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/metrics"
)

// DropPolicy selects behaviour when a subscriber's queue is full.
type DropPolicy int

const (
	// DropOldest discards the oldest queued event to admit the new one
	// (default: context data is freshest-wins).
	DropOldest DropPolicy = iota + 1
	// DropNewest discards the incoming event.
	DropNewest
)

// DefaultQueueLen is the per-subscription queue capacity when none is given.
const DefaultQueueLen = 64

// DefaultShards is the number of lock stripes when none is configured.
const DefaultShards = 8

// maxShards bounds WithShards to keep per-publish residual sweeps and
// shard-stat snapshots cheap.
const maxShards = 1024

// maxKeyCacheTypes bounds the memoised event-type → lookup-keys table and
// the exact-index lists the bus keeps once they empty; a running system
// sees few distinct event types, so the bound exists only to survive
// adversarial type churn.
const maxKeyCacheTypes = 4096

// ErrClosed is returned when operating on a closed Bus or subscription.
var ErrClosed = errors.New("eventbus: closed")

// Handler consumes delivered events. Handlers run on the subscription's
// delivery goroutine, started at its first event: they may block that
// subscription only.
type Handler func(event.Event)

// BatchHandler consumes delivered events a slice at a time: the delivery
// goroutine (started at the subscription's first event) drains everything
// queued since the last wakeup and hands it over in one call, so consumers
// that can amortise per-event overhead (wire encoding, lock acquisition,
// fsync) see the whole backlog at once. The slice may be a run shared with
// other subscribers (or the delivery loop's reused buffer): handlers must
// treat it as read-only and must not retain it.
type BatchHandler func([]event.Event)

// Stats counts bus activity; retrieved via Bus.Stats.
type Stats struct {
	Published uint64 // events accepted by Publish
	Delivered uint64 // handler invocations completed
	Dropped   uint64 // events discarded by full queues
	Subs      int    // current live subscriptions
	// IndexHits counts targets resolved through the exact-pattern index.
	IndexHits uint64
	// ResidualScanned counts residual-tier filter evaluations: wildcard
	// subscriptions examined one by one per publish.
	ResidualScanned uint64
}

// ShardStats is one lock stripe's view of the dispatch load.
type ShardStats struct {
	Published uint64 // events whose type hashed to this shard
	Delivered uint64 // deliveries completed by subscriptions in this shard
	Dropped   uint64 // events discarded by full queues in this shard
	Patterns  int    // distinct exact-tier patterns with a live subscription here
	Exact     int    // live exact-tier subscriptions
	Residual  int    // live residual-tier subscriptions
}

// Option configures a Bus.
type Option func(*Bus)

// WithShards sets the number of lock stripes (rounded up to a power of two,
// clamped to [1, 1024]). More shards reduce publisher contention at the cost
// of slightly dearer residual sweeps and stat snapshots.
func WithShards(n int) Option {
	return func(b *Bus) { b.nshards = n }
}

// shard is one lock stripe: a slice of the exact-pattern index plus a slice
// of the residual (wildcard) list, with its own dispatch counters.
type shard struct {
	mu       sync.RWMutex
	exact    map[ctxtype.Type][]*Subscription // guarded by mu
	residual []*Subscription                  // guarded by mu

	// nresidual mirrors len(residual) so publishes can skip empty stripes
	// without taking the lock — with many stripes and few wildcard
	// subscriptions, the sweep costs one atomic load per stripe.
	nresidual atomic.Int64

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// keyTable memoises event type → index lookup keys for one equivalence
// generation of the registry. It is immutable once published; misses install
// a fresh copy (copy-on-write), so readers never take a lock.
type keyTable struct {
	gen  uint64
	keys map[ctxtype.Type][]ctxtype.Type
}

// Bus is a concurrent publish/subscribe dispatcher. Construct with New.
type Bus struct {
	reg     *ctxtype.Registry // optional: enables semantic-equivalence matching
	nshards int
	shards  []*shard
	mask    uint32

	closed  atomic.Bool
	closeMu sync.Mutex // serialises Close against itself

	published       atomic.Uint64
	delivered       atomic.Uint64
	indexHits       atomic.Uint64
	residualScanned atomic.Uint64
	residuals       atomic.Int64 // live residual subs; publishes skip the sweep at 0
	// emptyLists counts the exact-index lists kept, empty, for their type's
	// next subscription; at most maxKeyCacheTypes.
	emptyLists atomic.Int64

	keys atomic.Pointer[keyTable]

	// drops charges every event discarded from a full queue to its
	// publisher: the attribution key its enqueue carried, or the discarded
	// event's own Source. A drop under a queue's lock costs the ledger's
	// lock-free hit; only a publisher's first drop installs its counter.
	//
	//lint:lockorder eventbus.Subscription.mu < guid.Table.mu drops are charged under a subscription's lock; the ledger's install lock is a leaf and takes nothing
	drops metrics.Ledger

	// quota, when non-nil, is the per-publisher admission config; the
	// disabled path costs one nil check per publish. buckets holds each
	// publisher's token bucket and quotaRejects the events each was
	// refused; neither is touched while quota is nil.
	quota        *Quota
	buckets      guid.Table[quotaBucket]
	quotaRejects metrics.Ledger

	wg sync.WaitGroup
}

// New constructs a Bus. reg may be nil, in which case filters match on the
// type hierarchy only.
func New(reg *ctxtype.Registry, opts ...Option) *Bus {
	b := &Bus{reg: reg, nshards: DefaultShards}
	for _, o := range opts {
		o(b)
	}
	n := 1
	for n < b.nshards && n < maxShards {
		n <<= 1
	}
	b.nshards = n
	b.mask = uint32(n - 1)
	b.shards = make([]*shard, n)
	for i := range b.shards {
		b.shards[i] = &shard{exact: make(map[ctxtype.Type][]*Subscription)}
	}
	return b
}

// Shards returns the number of lock stripes.
func (b *Bus) Shards() int { return b.nshards }

// typeShard returns the stripe a pattern hashes to (FNV-1a, allocation-free).
func (b *Bus) typeShard(t ctxtype.Type) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(t); i++ {
		h ^= uint32(t[i])
		h *= 16777619
	}
	return b.shards[h&b.mask]
}

// idShard returns the stripe a residual subscription's id hashes to. Byte 0
// is the kind tag (constant across subscriptions), so hash the random bytes.
func (b *Bus) idShard(id guid.GUID) *shard {
	return b.shards[binary.BigEndian.Uint32(id[1:5])&b.mask]
}

// entry is one slot of a subscription's delivery ring: a run of events — a
// Publish's one-event run or a slice of a batch — shared, immutably, by
// every subscriber the run matched and handed to their handlers in place.
// Sharing runs makes a publish cost one slice header per subscriber instead
// of one event copy per subscriber, at publish and again at drain.
type entry struct {
	run []event.Event // never written through
	// pub is the publisher/endpoint the entry's events are attributed to for
	// drop accounting; nil means attribute each discarded event to its own
	// Source. Wire and overlay ingest set it to the sending endpoint so
	// credit acks can blame the link whose traffic is being lost.
	pub guid.GUID
}

// attribution returns the publisher a discarded event from this entry
// counts against: the explicit key when one was given, the event's own
// producer otherwise.
func (en *entry) attribution(e event.Event) guid.GUID {
	if !en.pub.IsNil() {
		return en.pub
	}
	return e.Source
}

// Subscription is one consumer's registration with the bus.
type Subscription struct {
	id     guid.GUID
	filter event.Filter
	owner  guid.GUID // the subscribing entity (WithOwner), read back by Owner
	bus    *Bus

	// Index placement, fixed at Subscribe time.
	shard    *shard
	key      ctxtype.Type // exact-tier pattern ("" when residual)
	residual bool
	// matchAll is set when the filter's non-index constraints accept every
	// event, letting a batched publish admit a whole run without per-event
	// evaluation.
	matchAll bool
	// sources, when non-empty, is the set of producers the subscription
	// accepts (WithSources); fixed at Subscribe time.
	sources guid.Sorted

	// limit bounds the total queued *events*; fixed at Subscribe time.
	limit int

	// handler (Subscribe) or batch (SubscribeBatch) is what the delivery
	// goroutine runs; exactly one is set.
	handler Handler
	batch   BatchHandler

	mu     sync.Mutex
	queue  []entry // guarded by mu; ring of limit entries, nil until the first enqueue
	head   int     // guarded by mu
	count  int     // guarded by mu; entries in the ring
	events int     // guarded by mu; events across those entries
	policy DropPolicy
	// wake signals the delivery goroutine. It is made, and the goroutine
	// started, with the ring at the first enqueue: nil means no goroutine.
	wake   chan struct{} // guarded by mu
	closed bool          // guarded by mu

	oneShot bool
	fired   atomic.Bool
}

// SubOption configures a subscription. It is a plain value, so passing
// options to Subscribe allocates nothing; each sets one field, and
// Subscribe applies the set ones in order.
type SubOption struct {
	limit   int
	policy  DropPolicy
	owner   guid.GUID
	sources guid.Sorted
	oneShot bool
}

// WithQueueLen sets the bounded queue capacity in events (min 1;
// DefaultQueueLen when not given). The capacity is a bound: the ring's
// memory is committed at the subscription's first event, so a subscription
// that never receives one costs nothing for it.
func WithQueueLen(n int) SubOption { return SubOption{limit: max(n, 1)} }

// WithPolicy sets the full-queue policy.
func WithPolicy(p DropPolicy) SubOption { return SubOption{policy: p} }

// WithOwner records the subscribing entity's GUID on the subscription
// (Subscription.Owner); dispatch never reads it.
func WithOwner(owner guid.GUID) SubOption { return SubOption{owner: owner} }

// WithSources restricts the subscription to events whose Source is one of
// srcs: one subscription serves a consumer input fed by several producers
// (a configuration's fan-in) instead of one subscription per producer. The
// set is immutable, so the bus keeps it as it is, without a copy or a
// check of its order. An empty set adds no constraint. It cannot be
// combined with a filter that names a Source: Subscribe rejects the pair.
func WithSources(srcs guid.Sorted) SubOption { return SubOption{sources: srcs} }

// OneShot makes the subscription cancel itself after the first delivery —
// the paper's "one-time subscription" query mode.
func OneShot() SubOption { return SubOption{oneShot: true} }

// Subscribe registers h for events matching f. The returned Subscription
// must be Cancelled when no longer needed. No goroutine runs for it until
// its first event arrives.
//
// Filters naming a concrete type pattern are placed in the exact index under
// that pattern; wildcard and untyped filters join the residual tier.
//
// Each wakeup drains the queue and invokes h once per drained event, in
// order, reading every event in place from the run it was published in.
func (b *Bus) Subscribe(f event.Filter, h Handler, opts ...SubOption) (*Subscription, error) {
	if h == nil {
		return nil, errors.New("eventbus: nil handler")
	}
	return b.subscribe(f, h, nil, opts)
}

// SubscribeBatch registers h for events matching f, delivering everything
// queued since the last wakeup as one slice per invocation. Otherwise
// identical to Subscribe.
func (b *Bus) SubscribeBatch(f event.Filter, h BatchHandler, opts ...SubOption) (*Subscription, error) {
	if h == nil {
		return nil, errors.New("eventbus: nil handler")
	}
	return b.subscribe(f, nil, h, opts)
}

func (b *Bus) subscribe(f event.Filter, h Handler, bh BatchHandler, opts []SubOption) (*Subscription, error) {
	s := &Subscription{
		id:      guid.New(guid.KindSubscription),
		filter:  f,
		bus:     b,
		policy:  DropOldest,
		handler: h,
		batch:   bh,
	}
	for _, o := range opts {
		if o.limit > 0 {
			s.limit = o.limit
		}
		if o.policy != 0 {
			s.policy = o.policy
		}
		if !o.owner.IsNil() {
			s.owner = o.owner
		}
		if o.sources.Len() > 0 {
			s.sources = o.sources
		}
		s.oneShot = s.oneShot || o.oneShot
	}
	if s.limit == 0 {
		s.limit = DefaultQueueLen
	}
	if s.sources.Len() > 0 && !f.Source.IsNil() {
		return nil, errors.New("eventbus: filter Source and WithSources are exclusive")
	}

	s.residual = f.Type == "" || f.Type == ctxtype.Wildcard
	// Exact-tier type constraints are resolved by the index and residual
	// filters are untyped, so in both tiers a filter with no further
	// constraints accepts every candidate event.
	s.matchAll = f.Source.IsNil() && f.Subject.IsNil() && f.Range.IsNil() && f.MinQuality <= 0 && s.sources.Len() == 0
	if s.residual {
		s.shard = b.idShard(s.id)
	} else {
		s.key = f.Type
		s.shard = b.typeShard(f.Type)
	}

	sh := s.shard
	sh.mu.Lock()
	// Re-checked under the stripe lock: Close sets the flag before sweeping
	// the stripes, so either we observe it here or Close observes us there.
	if b.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	if s.residual {
		sh.residual = append(sh.residual, s)
		sh.nresidual.Add(1)
		b.residuals.Add(1)
	} else {
		list, ok := sh.exact[s.key]
		if ok && len(list) == 0 {
			b.emptyLists.Add(-1)
		}
		sh.exact[s.key] = append(list, s)
	}
	sh.mu.Unlock()
	return s, nil
}

// lookupKeys returns the exact-tier patterns an event of type t can match:
// t itself, each ancestor in the dotted hierarchy, and the members of t's
// declared equivalence class. The result is memoised per registry
// generation, so the hot path is a single map probe with no allocation.
//
//lint:hotpath
func (b *Bus) lookupKeys(t ctxtype.Type) []ctxtype.Type {
	var gen uint64
	if b.reg != nil {
		gen = b.reg.Generation()
	}
	kt := b.keys.Load()
	if kt != nil && kt.gen == gen {
		if ks, ok := kt.keys[t]; ok {
			return ks
		}
	}
	//lint:allow hotpath cache miss: once per new event type per registry generation
	ks := computeKeys(t, b.reg)
	//lint:allow hotpath cache miss: copy-on-write rebuild, amortised over every later hit
	nm := make(map[ctxtype.Type][]ctxtype.Type, 8)
	if kt != nil && kt.gen == gen && len(kt.keys) < maxKeyCacheTypes {
		for k, v := range kt.keys {
			nm[k] = v
		}
	}
	nm[t] = ks
	// A concurrent miss may overwrite this install; the loser's entry is
	// simply recomputed on its next publish.
	//lint:allow hotpath cache miss: the installed table is what makes the hit path allocation-free
	b.keys.Store(&keyTable{gen: gen, keys: nm})
	return ks
}

func computeKeys(t ctxtype.Type, reg *ctxtype.Registry) []ctxtype.Type {
	keys := make([]ctxtype.Type, 0, 4)
	for a := t; a != ""; a = a.Parent() {
		keys = append(keys, a)
	}
	if reg != nil {
	equiv:
		for _, eq := range reg.EquivSet(t) {
			for _, k := range keys {
				if k == eq {
					continue equiv
				}
			}
			keys = append(keys, eq)
		}
	}
	return keys
}

// targetPool recycles per-publish target slices across all buses.
var targetPool = sync.Pool{
	New: func() any {
		s := make([]*Subscription, 0, 16)
		return &s
	},
}

// Publish dispatches e to every matching subscription. It never blocks on
// slow consumers. Publish on a closed bus returns ErrClosed.
//
// The event travels as a one-event run: one allocation per call, shared by
// every matching subscription's ring, through the same dispatch path as
// PublishAll.
func (b *Bus) Publish(e event.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if b.closed.Load() {
		return ErrClosed
	}
	if b.quota != nil {
		ok, err := b.admitOne(e)
		if !ok {
			return err
		}
	}
	b.dispatchRuns([]event.Event{e}, guid.Nil)
	return nil
}

// PublishAll dispatches a batch of events in one call. The batch is copied
// once into a shared immutable buffer and walked as runs of consecutive
// events sharing a concrete type; for each run the exact index is resolved
// once and the residual tier swept once (rather than per event), and every
// matching subscription receives the run as a single ring entry — one slice
// header, one lock acquisition, one wakeup — instead of a per-event struct
// copy. Relative event order is preserved for every subscriber, and the
// caller's slice may be reused immediately.
//
// The whole batch is validated up front; on a validation error nothing is
// published. PublishAll on a closed bus returns ErrClosed.
func (b *Bus) PublishAll(events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	if _, err := event.ValidateBatch(events); err != nil {
		return err
	}
	if b.closed.Load() {
		return ErrClosed
	}
	if b.quota != nil {
		admitted, err := b.admitBatch(guid.Nil, events)
		if err != nil {
			return err
		}
		if len(admitted) == 0 {
			return nil
		}
		events = admitted
	}

	// One copy for the whole fan-out: subscriber rings hold views of this
	// buffer, so it must not alias the caller's (reusable) slice.
	shared := make([]event.Event, len(events))
	copy(shared, events)
	b.dispatchRuns(shared, guid.Nil)
	return nil
}

// PublishAllOwned is PublishAll for callers that hand the slice over: the
// bus retains it and shares read-only views of it with subscriber rings,
// so the caller must never write it again. Reads stay safe — the bus never
// writes into it either — so a caller may keep reading the slice, or share
// it with other readers, after the call. It exists to spare batch
// pipelines that already hold a slice nobody will write (the Range
// Service's filtering copy, SCINET's decoded batches) the defensive copy.
func (b *Bus) PublishAllOwned(events []event.Event) error {
	return b.PublishAllOwnedFrom(guid.Nil, events)
}

// PublishAllOwnedFrom is PublishAllOwned with an explicit drop-attribution
// key: every event of the batch later discarded from a full subscription
// queue is charged to pub in the Drops ledger instead of the event's own
// Source. Wire and overlay ingest pass the sending endpoint, so a credit
// ack can report the drops that endpoint's traffic caused — not the
// Range-wide total, and not the blameless co-tenant whose event a flood
// happened to evict. A nil pub falls back to per-event Source attribution.
// The slice is handed over as for PublishAllOwned: never written again,
// still safe to read.
func (b *Bus) PublishAllOwnedFrom(pub guid.GUID, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	if _, err := event.ValidateBatch(events); err != nil {
		return err
	}
	if b.closed.Load() {
		return ErrClosed
	}
	if b.quota != nil {
		admitted, err := b.admitBatch(pub, events)
		if err != nil {
			return err
		}
		if len(admitted) == 0 {
			return nil
		}
		events = admitted
	}
	b.dispatchRuns(events, pub)
	return nil
}

// dispatchRuns walks a validated, bus-owned batch in type-runs and fans
// each run out to its matching subscriptions, attributing eventual drops to
// pub (nil: to each event's own Source).
//
//lint:hotpath
func (b *Bus) dispatchRuns(shared []event.Event, pub guid.GUID) {
	tp := targetPool.Get().(*[]*Subscription)
	targets := (*tp)[:0]

	for i := 0; i < len(shared); {
		j := i + 1
		for j < len(shared) && shared[j].Type == shared[i].Type {
			j++
		}
		run := shared[i:j]
		t := run[0].Type
		i = j

		targets = targets[:0]
		var home *shard
		for _, k := range b.lookupKeys(t) {
			sh := b.typeShard(k)
			if home == nil {
				home = sh
			}
			sh.mu.RLock()
			targets = append(targets, sh.exact[k]...)
			sh.mu.RUnlock()
		}
		if b.residuals.Load() > 0 {
			var scanned uint64
			for _, sh := range b.shards {
				if sh.nresidual.Load() == 0 {
					continue
				}
				sh.mu.RLock()
				scanned += uint64(len(sh.residual))
				targets = append(targets, sh.residual...)
				sh.mu.RUnlock()
			}
			if scanned > 0 {
				b.residualScanned.Add(scanned)
			}
		}

		b.published.Add(uint64(len(run)))
		home.published.Add(uint64(len(run)))

		var hits uint64
		for _, s := range targets {
			toSend := run
			if !s.matchAll {
				nmatch := 0
				for k := range run {
					if s.matchesEvent(&run[k], b.reg) {
						nmatch++
					}
				}
				if nmatch == 0 {
					continue
				}
				if nmatch < len(run) {
					// Partial match: materialise this target's subset. It is
					// retained by the ring, so it cannot come from a reused
					// scratch buffer.
					//lint:allow hotpath partial-match subset is retained by the ring and must be owned memory
					ms := make([]event.Event, 0, nmatch)
					for k := range run {
						if s.matchesEvent(&run[k], b.reg) {
							ms = append(ms, run[k])
						}
					}
					toSend = ms
				}
			}
			if !s.residual {
				hits += uint64(len(toSend))
			}
			if n := s.enqueueRun(toSend, pub); n > 0 {
				s.shard.dropped.Add(uint64(n))
			}
		}
		if hits > 0 {
			b.indexHits.Add(hits)
		}
	}

	for i := range targets {
		targets[i] = nil
	}
	*tp = targets[:0]
	targetPool.Put(tp)
}

// matchesEvent applies the subscription's filter and source set to one
// event: exact-tier subscriptions had their type constraint resolved by the
// index, so only the residual constraints remain; residual-tier filters
// match in full.
func (s *Subscription) matchesEvent(e *event.Event, reg *ctxtype.Registry) bool {
	if s.sources.Len() > 0 && !s.sources.Has(e.Source) {
		return false
	}
	if s.residual {
		return s.filter.MatchesIn(e, reg)
	}
	return s.filter.MatchesRest(e)
}

// Stats returns a snapshot of bus counters.
func (b *Bus) Stats() Stats {
	n := 0
	for _, sh := range b.shards {
		sh.mu.RLock()
		for _, list := range sh.exact {
			n += len(list)
		}
		n += len(sh.residual)
		sh.mu.RUnlock()
	}
	return Stats{
		Published:       b.published.Load(),
		Delivered:       b.delivered.Load(),
		Dropped:         b.drops.Total(),
		Subs:            n,
		IndexHits:       b.indexHits.Load(),
		ResidualScanned: b.residualScanned.Load(),
	}
}

// Drops returns the ledger of events discarded from full subscription
// queues, each charged to its publisher: For(pub) is the figure a
// flow-credit ack to that publisher's endpoint carries.
func (b *Bus) Drops() *metrics.Ledger { return &b.drops }

// QuotaRejects returns the ledger of events refused by admission control
// (WithQuota), each charged to the publisher it was refused to.
func (b *Bus) QuotaRejects() *metrics.Ledger { return &b.quotaRejects }

// ShardStats returns a per-stripe snapshot of dispatch load, index ordered.
func (b *Bus) ShardStats() []ShardStats {
	out := make([]ShardStats, len(b.shards))
	for i, sh := range b.shards {
		sh.mu.RLock()
		st := ShardStats{
			Published: sh.published.Load(),
			Delivered: sh.delivered.Load(),
			Dropped:   sh.dropped.Load(),
			Residual:  len(sh.residual),
		}
		for _, list := range sh.exact {
			if len(list) > 0 {
				st.Patterns++
				st.Exact += len(list)
			}
		}
		sh.mu.RUnlock()
		out[i] = st
	}
	return out
}

// IndexHitRatio reports the fraction of dispatch work resolved through the
// exact index: hits / (hits + residual evaluations). It is 1 when every
// publish resolved via the index and approaches 0 when wildcard scans
// dominate; with no dispatch activity yet it reports 1.
func (b *Bus) IndexHitRatio() float64 {
	hits := b.indexHits.Load()
	res := b.residualScanned.Load()
	if hits+res == 0 {
		return 1
	}
	return float64(hits) / float64(hits+res)
}

// Close cancels all subscriptions and waits for delivery goroutines to exit.
// Further Publish/Subscribe calls fail with ErrClosed. Subscriptions that
// never received an event have no goroutine, so nothing is waited for them.
//
// A first event can start a goroutine while Close runs: it does so under
// the subscription's lock and only while the subscription is open, and
// Close cancels every indexed subscription under that lock before it waits,
// so every such start is counted before the wait begins.
func (b *Bus) Close() {
	b.closeMu.Lock()
	if b.closed.Load() {
		b.closeMu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed.Store(true)
	var victims []*Subscription
	for _, sh := range b.shards {
		sh.mu.Lock()
		for key, list := range sh.exact {
			victims = append(victims, list...)
			delete(sh.exact, key)
		}
		victims = append(victims, sh.residual...)
		sh.residual = nil
		sh.nresidual.Store(0)
		sh.mu.Unlock()
	}
	b.residuals.Store(0)
	b.emptyLists.Store(0)
	b.closeMu.Unlock()
	for _, s := range victims {
		s.Cancel()
	}
	b.wg.Wait()
}

// ID returns the subscription identifier.
func (s *Subscription) ID() guid.GUID { return s.id }

// Owner returns the subscribing entity's GUID (may be nil).
func (s *Subscription) Owner() guid.GUID { return s.owner }

// Filter returns the subscription's filter.
func (s *Subscription) Filter() event.Filter { return s.filter }

// Sources returns the subscription's source set (WithSources): the set it
// was given, empty when it has none.
func (s *Subscription) Sources() guid.Sorted { return s.sources }

// OneShot reports whether the subscription cancels itself after its first
// delivery (the OneShot option).
func (s *Subscription) OneShot() bool { return s.oneShot }

// Cancel removes the subscription and stops its delivery goroutine, if its
// first event started one; it never waits for that goroutine. Queued but
// undelivered events are discarded. Cancel is idempotent.
func (s *Subscription) Cancel() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	wake := s.wake
	s.mu.Unlock()
	// Wake the delivery loop, when there is one, so it observes closure.
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	s.detach()
}

// detach removes the subscription from its stripe's index. Only the Cancel
// call that flipped s.closed reaches here, so removal runs at most once; a
// Close that already swept the stripe leaves nothing to remove.
func (s *Subscription) detach() {
	sh := s.shard
	sh.mu.Lock()
	if s.residual {
		for i, v := range sh.residual {
			if v == s {
				last := len(sh.residual) - 1
				sh.residual[i] = sh.residual[last]
				sh.residual[last] = nil
				sh.residual = sh.residual[:last]
				sh.nresidual.Add(-1)
				s.bus.residuals.Add(-1)
				break
			}
		}
	} else {
		list := sh.exact[s.key]
		for i, v := range list {
			if v == s {
				last := len(list) - 1
				list[i] = list[last]
				list[last] = nil
				list = list[:last]
				// An emptied list is kept, while few are, so that its type's
				// next subscription neither re-inserts the key nor regrows it.
				if len(list) == 0 && s.bus.emptyLists.Add(1) > maxKeyCacheTypes {
					s.bus.emptyLists.Add(-1)
					delete(sh.exact, s.key)
				} else {
					sh.exact[s.key] = list
				}
				break
			}
		}
	}
	sh.mu.Unlock()
}

// evictOldestLocked discards the single oldest queued event — the head of
// the head entry's run, and the entry with it when that was its last event —
// and returns the publisher the discarded event is attributed to.
func (s *Subscription) evictOldestLocked() guid.GUID {
	en := &s.queue[s.head]
	src := en.attribution(en.run[0])
	s.events--
	if en.run = en.run[1:]; len(en.run) == 0 {
		*en = entry{}
		s.head = (s.head + 1) % len(s.queue)
		s.count--
	}
	return src
}

// pushLocked appends en to the ring. The caller has checked capacity: the
// ring array can always hold the entry, because every entry carries at
// least one event and total queued events are bounded by limit, the array's
// length.
func (s *Subscription) pushLocked(en entry) {
	s.queue[(s.head+s.count)%len(s.queue)] = en
	s.count++
	s.events += len(en.run)
}

// enqueueRun appends a shared batched run to the ring as one entry — one
// lock acquisition, one slice header, at most one wakeup — with drop
// accounting identical to enqueueing the run's events one at a time: every
// discarded event is attributed to its publisher (pub when set, its own
// Source otherwise), whichever entry it was discarded from. The run is
// retained by the ring and must never be written to again. It returns the
// number of events discarded; a closed subscription admits nothing and
// drops nothing.
//
//lint:hotpath
func (s *Subscription) enqueueRun(run []event.Event, pub guid.GUID) int {
	if len(run) == 0 {
		return 0
	}
	// dropRun charges a clipped stretch of the incoming run to the drop
	// ledger: one add when the whole ingest carries an attribution key,
	// per-event Source otherwise.
	drops := &s.bus.drops
	//lint:allow hotpath non-escaping closure, stack-allocated; the benchmark holds it to zero
	dropRun := func(clipped []event.Event) {
		if !pub.IsNil() {
			drops.Add(pub, uint64(len(clipped)))
			return
		}
		for i := range clipped {
			drops.Add(clipped[i].Source, 1)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	if s.queue == nil {
		//lint:allow hotpath once per subscription, at its first event: neither rings nor delivery goroutines exist for subscriptions that never receive one
		s.startLocked()
	}
	capEvents := s.limit
	dropped := 0
	admitted := true
	if s.policy == DropNewest {
		free := capEvents - s.events
		if free <= 0 {
			admitted = false
			dropped = len(run)
			dropRun(run)
		} else if len(run) > free {
			dropped = len(run) - free
			dropRun(run[free:])
			run = run[:free]
		}
	} else { // DropOldest: final content is the newest capEvents events
		if len(run) >= capEvents {
			dropped = s.events + len(run) - capEvents
			for s.count > 0 {
				drops.Add(s.evictOldestLocked(), 1)
			}
			dropRun(run[:len(run)-capEvents])
			run = run[len(run)-capEvents:]
		} else {
			for s.events+len(run) > capEvents {
				dropped++
				drops.Add(s.evictOldestLocked(), 1)
			}
		}
	}
	if admitted {
		s.pushLocked(entry{run: run, pub: pub})
	}
	wake := s.wake
	s.mu.Unlock()
	if admitted {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	return dropped
}

// startLocked commits the ring and starts the delivery goroutine; enqueue
// calls it at the subscription's first event, under s.mu on an open
// subscription. The goroutine is counted in the bus's wait group here, so
// a concurrent Bus.Close — which cancels this subscription under s.mu
// before it waits — either sees it counted or keeps it from starting.
func (s *Subscription) startLocked() {
	s.queue = make([]entry, s.limit)
	s.wake = make(chan struct{}, 1)
	wake := s.wake
	s.bus.wg.Add(1)
	go func() {
		defer s.bus.wg.Done()
		s.deliverLoop(wake)
	}()
}

// drain moves every queued run header into runs under one lock acquisition
// and empties the ring, returning the extended slice and the closed flag
// (read under the same lock, saving the delivery loop a second acquisition
// per wakeup cycle). No event is copied: the runs stay shared.
//
//lint:hotpath
func (s *Subscription) drain(runs [][]event.Event) ([][]event.Event, bool) {
	s.mu.Lock()
	for ; s.count > 0; s.count-- {
		runs = append(runs, s.queue[s.head].run)
		s.queue[s.head] = entry{}
		s.head = (s.head + 1) % len(s.queue)
	}
	s.events = 0
	closed := s.closed
	s.mu.Unlock()
	return runs, closed
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// deliverLoop drains the ring's run headers per wakeup and hands the
// backlog over in place, so a consumer behind a burst pays the wakeup and
// lock cost once per burst instead of per event. A per-event handler walks
// each run; a batch handler gets a one-run backlog as the shared run
// itself, and a longer one flattened — outside the lock — into a reused
// slice, so it always sees the whole backlog in one call.
func (s *Subscription) deliverLoop(wake <-chan struct{}) {
	var runs [][]event.Event
	var flat []event.Event
	for {
		var closed bool
		runs, closed = s.drain(runs[:0])
		if len(runs) == 0 {
			if closed {
				return
			}
			<-wake
			continue
		}
		if s.oneShot {
			if !s.fired.CompareAndSwap(false, true) {
				return
			}
			s.deliver(runs[0][:1])
			s.bus.delivered.Add(1)
			s.shard.delivered.Add(1)
			s.Cancel()
			return
		}
		var n int
		if s.batch != nil && len(runs) > 1 {
			for _, run := range runs {
				flat = append(flat, run...)
			}
			s.batch(flat)
			n = len(flat)
			clear(flat) // release payload references while flat is reused
			flat = flat[:0]
		} else {
			for _, run := range runs {
				s.deliver(run)
				n += len(run)
			}
		}
		clear(runs)
		s.bus.delivered.Add(uint64(n))
		s.shard.delivered.Add(uint64(n))
	}
}

// deliver hands one run to the subscription's handler, in place.
func (s *Subscription) deliver(run []event.Event) {
	if s.batch != nil {
		s.batch(run)
		return
	}
	for i := range run {
		s.handler(run[i])
	}
}

// String implements fmt.Stringer for diagnostics.
func (s *Subscription) String() string {
	return fmt.Sprintf("sub{%s %s}", s.id.Short(), s.filter)
}
