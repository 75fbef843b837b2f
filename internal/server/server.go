// Package server implements the Range and its Context Server (paper,
// Section 3.1): "Each Range is governed by its own individual Context
// Server (CS), the hub for the Range. A CS is considered to be a secure,
// always on central server for management of contextual information within
// a Range."
//
// A Range owns the full set of Context Utilities — Registrar, Profile
// Manager, Event Mediator, Query Resolver, Location Service (the location
// map) and the configuration runtime — and provides the access point for
// Context Aware Applications: query submission in the four modes of
// Section 4.3, advertisement (service) calls, and deferred execution of
// stored queries whose When clauses name a future instant or a triggering
// event (the CAPA scenario's configuration X).
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/configuration"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/eventbus"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/metrics"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/registry"
	"sci/internal/resolver"
)

// Config parameterises a Range.
type Config struct {
	// Name labels the Range ("level-10", "lift-lobby").
	Name string
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Types defaults to ctxtype.NewRegistry().
	Types *ctxtype.Registry
	// Places is the Range's location ground truth; may be nil.
	Places *location.Map
	// Coverage is the hierarchical area this Range manages (used by the
	// SCINET layer to direct query forwarding); may be empty.
	Coverage location.Path
	// Lease is the registration lease (default registry.DefaultLease).
	Lease time.Duration
	// MaxRepairs bounds per-configuration adaptation (default 8).
	MaxRepairs int
	// EventShards tunes the Event Mediator's dispatch lock-stripe count
	// (rounded up to a power of two; 0 = eventbus.DefaultShards). Raise it
	// on Ranges with many concurrent publishers.
	EventShards int
	// BatchMaxEvents caps how many events the Range Service coalesces into
	// one outbound wire message per remote endpoint. 0 or 1 disables
	// coalescing: every remote delivery ships as its own one-event batch.
	BatchMaxEvents int
	// BatchMaxDelay bounds how long a coalesced event may wait for its
	// batch to fill before the pending run is flushed anyway (default
	// DefaultBatchMaxDelay when BatchMaxEvents enables coalescing).
	BatchMaxDelay time.Duration
	// AdaptiveBatching derives each outbound coalescer's effective batch
	// size and flush delay from its destination's observed arrival rate,
	// between the configured floors and the BatchMaxEvents/BatchMaxDelay
	// ceilings: idle endpoints flush near-immediately, hot ones ride full
	// batches. Applies to the Range Service's per-endpoint queues and the
	// SCINET fabric's per-peer/fan-out queues alike.
	AdaptiveBatching flow.Adaptive
	// AutoRenewEvery renews all local registrations on this period
	// (0 disables; tests drive renewal manually).
	AutoRenewEvery time.Duration
	// PublisherQuota enforces per-publisher admission and weighted-fair
	// flushing: PR 5's drop attribution turned into isolation.
	PublisherQuota PublisherQuota
}

// PublisherQuota configures per-publisher enforcement on a Range. Rate > 0
// arms a token bucket per publishing source at the mediator's admission
// edge (Publish/PublishAll/PublishAllFrom), clipping a flooding tenant
// before it costs dispatch work; over-quota events are shed-and-counted
// (readable via QuotaRejectedFor) or, with Reject, refused with an error
// wrapping eventbus.ErrOverQuota. Enabling enforcement (Rate > 0 or any
// Weights) also switches the Range's outbound coalescers — Range Service
// endpoints and SCINET fabric queues alike — to weighted-fair per-source
// draining, so a credit-throttled link sheds the offender's backlog rather
// than every tenant's.
type PublisherQuota struct {
	// Rate is the sustained per-publisher admission rate, events/second
	// (0 disables admission control).
	Rate float64
	// Burst is the token-bucket depth (default: one second's worth of
	// Rate).
	Burst int
	// Reject refuses over-quota publishes with a typed error instead of
	// shedding the excess.
	Reject bool
	// Weights sets per-source weighted-fair drain shares for outbound
	// coalescers (absent sources weigh 1).
	Weights map[guid.GUID]int
}

// enabled reports whether any enforcement (admission or fair flushing) is
// configured.
func (q PublisherQuota) enabled() bool { return q.Rate > 0 || len(q.Weights) > 0 }

// Range is one administrative area: a Context Server plus its utilities and
// locally hosted components.
type Range struct {
	id   guid.GUID // the Range's own GUID
	cs   guid.GUID // the Context Server's GUID
	name string
	clk  clock.Clock

	types    *ctxtype.Registry
	places   *location.Map
	coverage location.Path

	registrar *registry.Registrar
	profiles  *profile.Manager
	med       *mediator.Mediator
	res       *resolver.Resolver
	runtime   *configuration.Runtime

	mu       sync.Mutex
	comps    map[guid.GUID]entity.CE
	caas     map[guid.GUID]*entity.CAA
	silenced guid.Set // components excluded from auto-renewal (failure injection)
	pending  map[guid.GUID]*pendingQuery
	closed   bool

	renewTimer clock.Timer
	watchOff   func()
	profSub    guid.GUID

	batchMaxEvents int
	batchMaxDelay  time.Duration
	adaptive       flow.Adaptive
	quota          PublisherQuota
	// statsSources are external contributors to StatsMap — layers owning
	// state the Range can't see (the Range Service's wire codec and byte
	// gauges, the fabric's hierarchy state). Each returns dotted metric
	// names.
	statsSources []func() map[string]float64
	// flowStats is the shared backpressure/flush sink every outbound
	// coalescer shipping on this Range's behalf reports into (Range
	// Service endpoints and SCINET fabric peers alike).
	flowStats flow.SharedStats

	// Metrics.
	QueriesSubmitted metrics.Counter
	QueriesDeferred  metrics.Counter
	QueriesExecuted  metrics.Counter
	ResolveLatency   metrics.Histogram
	// RemoteBatchesSent / RemoteEventsSent count the Range Service's
	// outbound event traffic to remote endpoints: wire messages shipped and
	// the events they carried (coalesced or not).
	RemoteBatchesSent metrics.Counter
	RemoteEventsSent  metrics.Counter
	// RemoteSendFailures counts wire sends to remote components that the
	// transport rejected (unknown destination, closed endpoint).
	RemoteSendFailures metrics.Counter
}

// DefaultBatchMaxDelay is the flush deadline used when Config.BatchMaxEvents
// enables outbound coalescing but no BatchMaxDelay is given.
const DefaultBatchMaxDelay = 2 * time.Millisecond

// pendingQuery is a stored query awaiting its When condition.
type pendingQuery struct {
	q       query.Query
	owner   *entity.CAA
	trigger guid.GUID // mediator subscription id watching for the trigger
	timer   clock.Timer
}

// Result is the synchronous answer to a query submission.
type Result struct {
	// Query echoes the submitted query's id.
	Query guid.GUID
	// Profiles answers ModeProfile. They are copies, the caller's to
	// write; the Profile Manager's own answers are frozen and shared.
	Profiles []profile.Profile
	// Advertisement and Provider answer ModeAdvertisement.
	Advertisement *profile.Advertisement
	Provider      guid.GUID
	// Configuration is the instantiated configuration id for subscription
	// modes (nil GUID when the query was deferred).
	Configuration guid.GUID
	// Deferred reports that the query was stored pending its When clause.
	Deferred bool
}

// Errors.
var (
	ErrClosed        = errors.New("server: range closed")
	ErrUnknownEntity = errors.New("server: unknown entity")
	ErrNoCAA         = errors.New("server: owner is not a registered application")
	ErrExpiredQuery  = errors.New("server: query expired before execution")
)

// New builds and starts a Range.
func New(cfg Config) *Range {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Types == nil {
		cfg.Types = ctxtype.NewRegistry()
	}
	if cfg.Name == "" {
		cfg.Name = "range"
	}
	if cfg.BatchMaxEvents > 1 && cfg.BatchMaxDelay <= 0 {
		cfg.BatchMaxDelay = DefaultBatchMaxDelay
	}
	r := &Range{
		id:       guid.New(guid.KindRange),
		cs:       guid.New(guid.KindServer),
		name:     cfg.Name,
		clk:      cfg.Clock,
		types:    cfg.Types,
		places:   cfg.Places,
		coverage: cfg.Coverage,
		profiles: &profile.Manager{},
		comps:    make(map[guid.GUID]entity.CE),
		caas:     make(map[guid.GUID]*entity.CAA),
		silenced: guid.NewSet(),
		pending:  make(map[guid.GUID]*pendingQuery),

		batchMaxEvents: cfg.BatchMaxEvents,
		batchMaxDelay:  cfg.BatchMaxDelay,
		adaptive:       cfg.AdaptiveBatching,
		quota:          cfg.PublisherQuota,
	}
	r.registrar = registry.New(registry.Config{Clock: cfg.Clock, Lease: cfg.Lease})
	medOpts := []mediator.Option{mediator.WithShards(cfg.EventShards)}
	if cfg.PublisherQuota.Rate > 0 {
		medOpts = append(medOpts, mediator.WithQuota(eventbus.Quota{
			Rate:   cfg.PublisherQuota.Rate,
			Burst:  cfg.PublisherQuota.Burst,
			Reject: cfg.PublisherQuota.Reject,
			Clock:  cfg.Clock,
		}))
	}
	r.med = mediator.New(cfg.Types, medOpts...)
	r.res = resolver.New(r.profiles, cfg.Types, cfg.Places)
	r.runtime = configuration.New(r.med, r.res, configuration.ComponentsFunc(r.Component), cfg.MaxRepairs)

	// Departures repair configurations and are announced as events;
	// arrivals are announced as events (Section 3.4 mobility model).
	r.watchOff = r.registrar.Watch(registry.FuncWatcher{
		Arrival: func(reg registry.Registration) {
			r.publishLifecycle(ctxtype.EntityArrival, reg, "")
		},
		Departure: func(reg registry.Registration, why registry.Reason) {
			r.handleDeparture(reg, why)
		},
	})

	// Profile updates from live components (e.g. printer queue changes)
	// refresh the stored profile so resolver constraints see the truth.
	if rec, err := r.med.Subscribe(r.cs, event.Filter{Type: ctxtype.ProfileUpdate},
		r.handleProfileUpdate, mediator.SubOptions{}); err == nil {
		r.profSub = rec.ID
	}

	if cfg.AutoRenewEvery > 0 {
		r.scheduleRenew(cfg.AutoRenewEvery)
	}
	return r
}

// ID returns the Range's GUID.
func (r *Range) ID() guid.GUID { return r.id }

// ServerID returns the Context Server's GUID.
func (r *Range) ServerID() guid.GUID { return r.cs }

// Name returns the Range's label.
func (r *Range) Name() string { return r.name }

// Coverage returns the hierarchical area this Range manages.
func (r *Range) Coverage() location.Path { return r.coverage }

// Places returns the Range's location map (may be nil).
func (r *Range) Places() *location.Map { return r.places }

// Types returns the Range's context type registry.
func (r *Range) Types() *ctxtype.Registry { return r.types }

// Mediator exposes the Event Mediator (the SCINET layer and tests publish
// through it).
func (r *Range) Mediator() *mediator.Mediator { return r.med }

// Registrar exposes the Registrar.
func (r *Range) Registrar() *registry.Registrar { return r.registrar }

// Profiles exposes the Profile Manager.
func (r *Range) Profiles() *profile.Manager { return r.profiles }

// Runtime exposes the configuration runtime.
func (r *Range) Runtime() *configuration.Runtime { return r.runtime }

// Component implements configuration.Components.
func (r *Range) Component(id guid.GUID) (entity.CE, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ce, ok := r.comps[id]
	return ce, ok
}

// AddEntity performs the discovery/registration sequence of Fig 5 for a
// locally hosted CE: register with the Registrar, store the Profile, attach
// the component to the Event Mediator, and announce the arrival.
func (r *Range) AddEntity(ce entity.CE) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.comps[ce.ID()] = ce
	r.mu.Unlock()

	prof := ce.Profile()
	if err := r.profiles.Put(prof); err != nil {
		return err
	}
	if _, err := r.registrar.Register(ce.ID(), prof.Name); err != nil {
		return err
	}
	if b, ok := ce.(interface{ SetRange(guid.GUID) }); ok {
		b.SetRange(r.id)
	}
	ce.Attach(r.med)
	return nil
}

// AddApplication registers a CAA with the Range (its access point for
// queries, Section 3.1).
func (r *Range) AddApplication(caa *entity.CAA) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.caas[caa.ID()] = caa
	r.mu.Unlock()

	prof := caa.Profile()
	if err := r.profiles.Put(prof); err != nil {
		return err
	}
	if _, err := r.registrar.Register(caa.ID(), prof.Name); err != nil {
		return err
	}
	if b, ok := interface{}(caa).(interface{ SetRange(guid.GUID) }); ok {
		b.SetRange(r.id)
	}
	caa.Attach(r.med)
	return nil
}

// RemoveEntity deregisters a component cleanly (announced departure).
func (r *Range) RemoveEntity(id guid.GUID) error {
	r.mu.Lock()
	_, isComp := r.comps[id]
	_, isCAA := r.caas[id]
	r.mu.Unlock()
	if !isComp && !isCAA {
		return fmt.Errorf("%w: %s", ErrUnknownEntity, id.Short())
	}
	return r.registrar.Deregister(id)
}

// StopRenewing excludes a component from auto-renewal so its lease expires
// naturally — the failure-injection hook for experiment E8.
func (r *Range) StopRenewing(id guid.GUID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.silenced.Add(id)
}

// RenewAll renews every live local registration except silenced ones.
func (r *Range) RenewAll() {
	r.mu.Lock()
	ids := make([]guid.GUID, 0, len(r.comps)+len(r.caas))
	for id := range r.comps {
		if !r.silenced.Has(id) {
			ids = append(ids, id)
		}
	}
	for id := range r.caas {
		if !r.silenced.Has(id) {
			ids = append(ids, id)
		}
	}
	r.mu.Unlock()
	for _, id := range ids {
		_ = r.registrar.Renew(id) // a failed renew = already expired; expiry path handles it
	}
}

// Submit processes a query from a registered CAA, dispatching on mode.
func (r *Range) Submit(q query.Query) (*Result, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	owner := r.caas[q.Owner]
	r.mu.Unlock()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r.QueriesSubmitted.Inc()

	switch q.Mode {
	case query.ModeProfile:
		return r.submitProfile(q)
	case query.ModeAdvertisement:
		return r.submitAdvertisement(q)
	case query.ModeSubscribe, query.ModeOnce:
		if owner == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoCAA, q.Owner.Short())
		}
		if q.When.Immediate() {
			return r.execute(q, owner)
		}
		return r.defer_(q, owner)
	default:
		return nil, query.ErrBadQuery
	}
}

// submitProfile answers a profile request. The profile finders return the
// stored profiles read-only; the answer goes to an application, so it gets
// copies.
func (r *Range) submitProfile(q query.Query) (*Result, error) {
	res := &Result{Query: q.ID}
	switch q.What.Kind() {
	case "entity":
		p, err := r.profiles.Get(q.What.Entity)
		if err != nil {
			return nil, err
		}
		res.Profiles = []profile.Profile{p}
	case "entity-type":
		ps := r.profiles.FindByEntityType(q.What.EntityType)
		res.Profiles = make([]profile.Profile, len(ps))
		for i, p := range ps {
			res.Profiles[i] = p.Clone()
		}
	case "pattern":
		cands := r.profiles.FindProviders(q.What.Pattern, r.types)
		res.Profiles = make([]profile.Profile, len(cands))
		for i, c := range cands {
			res.Profiles[i] = c.Profile.Clone()
		}
	}
	return res, nil
}

// submitAdvertisement resolves the best service provider and returns its
// advertisement.
func (r *Range) submitAdvertisement(q query.Query) (*Result, error) {
	start := time.Now()
	cfg, err := r.res.Resolve(q, r.resolveContext(q))
	r.ResolveLatency.RecordDuration(time.Since(start))
	if err != nil {
		return nil, err
	}
	p, err := r.profiles.Lookup(cfg.Root.Provider)
	if err != nil {
		return nil, err
	}
	return &Result{
		Query:         q.ID,
		Advertisement: p.Advertisement.Clone(),
		Provider:      p.Entity,
	}, nil
}

// execute resolves and instantiates a subscription-mode query now.
func (r *Range) execute(q query.Query, owner *entity.CAA) (*Result, error) {
	start := time.Now()
	rctx := r.resolveContext(q)
	cfg, err := r.res.Resolve(q, rctx)
	r.ResolveLatency.RecordDuration(time.Since(start))
	if err != nil {
		return nil, err
	}
	// Root delivery is batched end to end: a burst of root outputs crosses
	// the mediator as one slice and lands in the CAA (or its remote proxy's
	// outbound coalescer) under a single lock acquisition.
	if err := r.runtime.InstantiateBatch(cfg, rctx, owner.ConsumeAll); err != nil {
		return nil, err
	}
	r.QueriesExecuted.Inc()
	return &Result{Query: q.ID, Configuration: cfg.ID}, nil
}

// defer_ stores a query until its When clause fires (CAPA configuration X:
// "stores it until its temporal constraints are satisfied").
func (r *Range) defer_(q query.Query, owner *entity.CAA) (*Result, error) {
	pq := &pendingQuery{q: q, owner: owner}
	r.mu.Lock()
	r.pending[q.ID] = pq
	r.mu.Unlock()
	r.QueriesDeferred.Inc()

	fire := func() {
		r.mu.Lock()
		_, still := r.pending[q.ID]
		delete(r.pending, q.ID)
		r.mu.Unlock()
		if !still {
			return
		}
		if pq.trigger != (guid.GUID{}) {
			_ = r.med.Cancel(pq.trigger)
		}
		if pq.timer != nil {
			pq.timer.Stop()
		}
		// Execute with the When stripped (it has fired).
		qq := q
		qq.When = query.When{}
		if _, err := r.execute(qq, owner); err != nil {
			// Deliver the failure as a query_error event so the CAA learns.
			r.deliverError(owner, q, err)
		}
	}

	if tr := q.When.Trigger; tr != nil {
		rec, err := r.med.Subscribe(r.cs, *tr, func(event.Event) { fire() },
			mediator.SubOptions{OneShot: true})
		if err != nil {
			return nil, err
		}
		pq.trigger = rec.ID
	}
	if !q.When.After.IsZero() {
		d := q.When.After.Sub(r.clk.Now())
		pq.timer = r.clk.AfterFunc(d, fire)
	}
	if !q.When.Expires.IsZero() {
		d := q.When.Expires.Sub(r.clk.Now())
		r.clk.AfterFunc(d, func() {
			r.mu.Lock()
			pq, still := r.pending[q.ID]
			delete(r.pending, q.ID)
			r.mu.Unlock()
			if !still {
				return
			}
			if pq.trigger != (guid.GUID{}) {
				_ = r.med.Cancel(pq.trigger)
			}
			if pq.timer != nil {
				pq.timer.Stop()
			}
			r.deliverError(pq.owner, q, ErrExpiredQuery)
		})
	}
	return &Result{Query: q.ID, Deferred: true}, nil
}

// PendingQueries returns the ids of stored queries, sorted.
func (r *Range) PendingQueries() []guid.GUID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]guid.GUID, 0, len(r.pending))
	for id := range r.pending {
		out = append(out, id)
	}
	guid.Sort(out)
	return out
}

// CallService performs an advertisement (ServiceInterface) call on a local
// CE — the point-to-point half of the hybrid communication model. Service
// calls may change the provider's state (a print submission fills its
// queue), so the stored profile is refreshed synchronously afterwards:
// a query issued right after the call must see the new attributes.
func (r *Range) CallService(provider guid.GUID, op string, args map[string]any) (map[string]any, error) {
	ce, ok := r.Component(provider)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEntity, provider.Short())
	}
	out, err := ce.Serve(op, args)
	if err == nil {
		_ = r.profiles.Put(ce.Profile())
	}
	return out, err
}

// Publish lets infrastructure code (SCINET forwarding, tests) inject an
// event into the Range's mediator. Events without a Range stamp are stamped
// with this Range's id; an event already stamped (cross-range forwarding)
// keeps its producing Range, so subscriptions filtering on Range and the
// SCINET's own forwarding tap can tell local production from remote ingest.
func (r *Range) Publish(e event.Event) error {
	if e.Range.IsNil() {
		e = e.WithRange(r.id)
	}
	return r.med.Publish(e)
}

// PublishAll injects a batch of events into the Range's mediator in one
// call: the Event Mediator's bus resolves its subscription index once per
// run of same-type events and appends each subscriber's share of a run
// under a single queue lock acquisition. Unstamped events are stamped with
// this Range's id; already-stamped events (batches forwarded from a sibling
// Range) keep their origin stamp. The caller's slice is not modified.
func (r *Range) PublishAll(events []event.Event) error {
	return r.PublishAllFrom(guid.Nil, events)
}

// PublishAllFrom is PublishAll with an explicit drop-attribution key:
// events of this batch later discarded from full subscription queues count
// against pub (see DispatchDropsFor) rather than their own Source, so a
// flow-credit ack can carry the drops caused by one link's traffic instead
// of the Range-wide total. A nil pub attributes per event Source. (The
// Range Service and SCINET ingest paths stamp their events themselves and
// hand them to the Mediator's PublishAllOwnedFrom, sparing this copy.)
func (r *Range) PublishAllFrom(pub guid.GUID, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	stamped := make([]event.Event, len(events))
	for i := range events {
		stamped[i] = events[i]
		if stamped[i].Range.IsNil() {
			stamped[i].Range = r.id
		}
	}
	// The stamping copy is already private, so hand it to the bus instead
	// of paying a second defensive copy.
	return r.med.PublishAllOwnedFrom(pub, stamped)
}

// BatchMaxEvents reports the configured per-endpoint outbound coalescing
// cap (0 or 1: coalescing disabled).
func (r *Range) BatchMaxEvents() int { return r.batchMaxEvents }

// BatchMaxDelay reports the configured flush deadline for partially filled
// outbound batches.
func (r *Range) BatchMaxDelay() time.Duration { return r.batchMaxDelay }

// AdaptiveBatching reports the rate-derived batch-sizing configuration the
// Range's outbound coalescers run with.
func (r *Range) AdaptiveBatching() flow.Adaptive { return r.adaptive }

// FlowStats returns the shared flow-control stats sink the Range's
// outbound coalescers report into; its counters feed the
// remote.backpressure.* gauges.
func (r *Range) FlowStats() *flow.SharedStats { return &r.flowStats }

// FairFlush reports the weighted-fair drain configuration the Range's
// outbound coalescers should run with: enabled whenever per-publisher
// enforcement is configured.
func (r *Range) FairFlush() flow.Fair {
	return flow.Fair{Enabled: r.quota.enabled(), Weights: r.quota.Weights}
}

// QuotaRejectedFor returns the cumulative count of events refused by
// per-publisher admission control charged against pub (0 with quotas
// disabled).
func (r *Range) QuotaRejectedFor(pub guid.GUID) uint64 {
	return r.med.QuotaRejectedFor(pub)
}

// QuotaRejectedBySource returns the per-publisher quota-refusal snapshot
// (nil-GUID key: the overflow bucket).
func (r *Range) QuotaRejectedBySource() map[guid.GUID]uint64 {
	return r.med.QuotaRejectedBySource()
}

// DispatchStats returns the Event Mediator's bus-wide dispatch counters.
func (r *Range) DispatchStats() eventbus.Stats {
	return r.med.Stats()
}

// DispatchDropsFor returns the cumulative count of dispatched events
// discarded from full subscription queues attributed to one publisher or
// ingest endpoint — the figure a flow-credit ack to that endpoint carries.
func (r *Range) DispatchDropsFor(pub guid.GUID) uint64 {
	return r.med.DropsFor(pub)
}

// DispatchDropsBySource returns the per-publisher dispatch-drop attribution
// snapshot (nil-GUID key: the overflow bucket).
func (r *Range) DispatchDropsBySource() map[guid.GUID]uint64 {
	return r.med.DropsBySource()
}

// StatsMap renders the Range's health — the Range's only metric rendering —
// as the flat float64 map the "dispatch.stats" infrastructure call answers
// with, shared between the Range Service (per-Range over the wire) and the
// SCINET fabric (fleet-wide rollup over the overlay). Keys are dotted
// layer.metric names: the Event Mediator's dispatch counters, per-shard
// counts and per-publisher attribution (eventbus.*), the query counters
// (queries.*), outbound delivery and flow control (remote.*), and whatever
// the AddStatsSource contributors add. Values are float64 so they survive
// the JSON wire round trip unchanged.
func (r *Range) StatsMap() map[string]float64 {
	st := r.med.Stats()
	out := map[string]float64{
		"eventbus.published":        float64(st.Published),
		"eventbus.delivered":        float64(st.Delivered),
		"eventbus.dropped":          float64(st.Dropped),
		"eventbus.subs":             float64(st.Subs),
		"eventbus.index_hits":       float64(st.IndexHits),
		"eventbus.residual_scanned": float64(st.ResidualScanned),
		"eventbus.index_hit_ratio":  r.med.IndexHitRatio(),
		"eventbus.shards":           float64(len(r.med.ShardStats())),
		"eventbus.quota.rejected":   float64(st.QuotaRejected),

		"queries.submitted": float64(r.QueriesSubmitted.Value()),
		"queries.deferred":  float64(r.QueriesDeferred.Value()),
		"queries.executed":  float64(r.QueriesExecuted.Value()),

		"remote.batches_sent":                 float64(r.RemoteBatchesSent.Value()),
		"remote.events_sent":                  float64(r.RemoteEventsSent.Value()),
		"remote.send_failures":                float64(r.RemoteSendFailures.Value()),
		"remote.flushes":                      float64(r.flowStats.Flushes.Value()),
		"remote.backpressure.throttled":       float64(r.flowStats.Throttled.Value()),
		"remote.backpressure.drops_reported":  float64(r.flowStats.DropsReported.Value()),
		"remote.backpressure.throttle_events": float64(r.flowStats.ThrottleEvents.Value()),
		"remote.backpressure.shed":            float64(r.flowStats.EventsShed.Value()),
	}
	for i, ss := range r.med.ShardStats() {
		shard := fmt.Sprintf("eventbus.shard%02d.", i)
		out[shard+"published"] = float64(ss.Published)
		out[shard+"delivered"] = float64(ss.Delivered)
		out[shard+"dropped"] = float64(ss.Dropped)
	}
	// Per-publisher attribution: one gauge per top publisher, keyed by its
	// short GUID form, with the long tail folded into the .other key — the
	// full maps stay queryable via DispatchDropsBySource and friends, but a
	// stats round trip must not ship a key per device a high-churn Range
	// has ever dropped for. The keys sum cleanly in fleet rollups (a
	// publisher's figures across Ranges add up).
	for _, fam := range []struct {
		prefix string
		all    map[guid.GUID]uint64
	}{
		{"eventbus.dropped.from.", r.med.DropsBySource()},
		{"eventbus.quota.rejected.from.", r.med.QuotaRejectedBySource()},
		{"remote.backpressure.throttled.by_source.", r.flowStats.ShedBySource()},
	} {
		for _, e := range topSources(fam.all) {
			key := fam.prefix + "other"
			if !e.src.IsNil() {
				key = fam.prefix + e.src.Short()
			}
			out[key] += float64(e.n)
		}
	}
	for _, src := range r.snapshotStatsSources() {
		for name, v := range src() {
			out[name] = v //lint:allow gaugekey stats-source contributors are contractually bounded per AddStatsSource
		}
	}
	return out
}

// AddStatsSource registers an external gauge contributor: f is called on
// every StatsMap render and returns dotted metric names, which StatsMap
// passes through unchanged. Used by the Range Service to surface wire-level
// state — connection codecs, bytes on the wire — the Range itself never
// sees, and by the SCINET fabric for its hierarchy state.
func (r *Range) AddStatsSource(f func() map[string]float64) {
	if f == nil {
		return
	}
	r.mu.Lock()
	r.statsSources = append(r.statsSources, f)
	r.mu.Unlock()
}

func (r *Range) snapshotStatsSources() []func() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]func() map[string]float64(nil), r.statsSources...)
}

// maxDropSourceGauges bounds how many publishers each per-publisher family
// of StatsMap exports by name; everything beyond the top offenders is
// aggregated under "other".
const maxDropSourceGauges = 8

// dropSourceEntry is one exported per-publisher figure; a nil source is
// the aggregated remainder.
type dropSourceEntry struct {
	src guid.GUID
	n   uint64
}

// topSources reduces a per-publisher attribution map to its top
// maxDropSourceGauges entries by descending count, plus (last, nil-keyed)
// the aggregated remainder — the bounding every per-tenant gauge family
// shares.
//
//lint:bounded
func topSources(all map[guid.GUID]uint64) []dropSourceEntry {
	if len(all) == 0 {
		return nil
	}
	entries := make([]dropSourceEntry, 0, len(all))
	var other uint64
	for src, n := range all {
		if src.IsNil() {
			other += n // the bus's own overflow bucket
			continue
		}
		entries = append(entries, dropSourceEntry{src: src, n: n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return guid.Less(entries[i].src, entries[j].src)
	})
	if len(entries) > maxDropSourceGauges {
		for _, e := range entries[maxDropSourceGauges:] {
			other += e.n
		}
		entries = entries[:maxDropSourceGauges]
	}
	if other > 0 {
		entries = append(entries, dropSourceEntry{n: other})
	}
	return entries
}

// resolveContext builds the resolver context for a query: owner location
// (for closest-to-me) and registrar liveness.
func (r *Range) resolveContext(q query.Query) resolver.Context {
	ctx := resolver.Context{
		LiveOnly: r.registrar.IsLive,
	}
	if p, err := r.profiles.Lookup(q.Owner); err == nil {
		ctx.OwnerLocation = p.Location
	}
	return ctx
}

// handleDeparture is the registrar watcher: cancel the departed entity's
// subscriptions, drop its profile, repair configurations, announce.
func (r *Range) handleDeparture(reg registry.Registration, why registry.Reason) {
	r.mu.Lock()
	ce, isComp := r.comps[reg.Entity]
	delete(r.comps, reg.Entity)
	delete(r.caas, reg.Entity)
	r.silenced.Remove(reg.Entity)
	r.mu.Unlock()

	if isComp {
		ce.Detach()
	}
	r.med.CancelOwned(reg.Entity)
	r.profiles.Remove(reg.Entity)
	r.runtime.HandleDeparture(reg.Entity)
	r.publishLifecycle(ctxtype.EntityDeparture, reg, why.String())
}

// handleProfileUpdate refreshes the stored profile of a live component.
func (r *Range) handleProfileUpdate(e event.Event) {
	r.mu.Lock()
	ce, ok := r.comps[e.Source]
	r.mu.Unlock()
	if !ok {
		return
	}
	_ = r.profiles.Put(ce.Profile())
}

// publishLifecycle emits entity.arrival / entity.departure events.
func (r *Range) publishLifecycle(t ctxtype.Type, reg registry.Registration, reason string) {
	payload := map[string]any{
		"name": reg.Name,
		"kind": reg.Kind.String(),
	}
	if reason != "" {
		payload["reason"] = reason
	}
	e := event.New(t, r.cs, 0, r.clk.Now(), payload).
		WithSubject(reg.Entity).WithRange(r.id)
	_ = r.med.Publish(e)
}

func (r *Range) scheduleRenew(every time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.renewTimer = r.clk.AfterFunc(every, func() {
		r.RenewAll()
		r.scheduleRenew(every)
	})
}

// Close shuts the Range down: stops timers, tears down configurations and
// the mediator, closes the registrar.
func (r *Range) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.renewTimer != nil {
		r.renewTimer.Stop()
	}
	pending := r.pending
	r.pending = make(map[guid.GUID]*pendingQuery)
	comps := make([]entity.CE, 0, len(r.comps))
	for _, ce := range r.comps {
		comps = append(comps, ce)
	}
	r.mu.Unlock()

	for _, pq := range pending {
		if pq.timer != nil {
			pq.timer.Stop()
		}
	}
	if r.watchOff != nil {
		r.watchOff()
	}
	for _, st := range r.runtime.Active() {
		_ = r.runtime.Teardown(st.ID)
	}
	for _, ce := range comps {
		ce.Detach()
	}
	r.registrar.Close()
	r.med.Close()
}

// deliverError synthesises an error event to the owning CAA.
func (r *Range) deliverError(owner *entity.CAA, q query.Query, err error) {
	e := event.New("query.error", r.cs, 0, r.clk.Now(), map[string]any{
		"query": q.ID.String(),
		"error": err.Error(),
	}).WithRange(r.id)
	owner.Consume(e)
}
