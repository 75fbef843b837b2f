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
	"maps"
	"slices"
	"sync"
	"sync/atomic"
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
	// BatchMaxEvents caps how many events one outbound wire message
	// carries per remote destination: every remote delivery, from the
	// Range Service and the SCINET fabric alike, goes through a
	// flow.Coalescer with this batch ceiling. 0 or 1 means one-event
	// batches, shipped at once, under the same flow control.
	BatchMaxEvents int
	// BatchMaxDelay bounds how long a coalesced event may wait for its
	// batch to fill before the pending run is flushed anyway, and paces a
	// credit-throttled link (default DefaultBatchMaxDelay).
	BatchMaxDelay time.Duration
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
// before it costs dispatch work; over-quota events are shed and charged
// to their publisher in Range.QuotaRejects or, with Reject, refused with
// an error wrapping eventbus.ErrOverQuota. Enabling enforcement (Rate > 0
// or any Weights) also switches the Range's outbound coalescers — Range
// Service endpoints and SCINET fabric queues alike — to weighted-fair
// per-source draining, so a credit-throttled link sheds the offender's
// backlog rather than every tenant's, charging it in the Range's shed
// ledger (FlowStats().Shed).
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
	// isLive is registrar.IsLive bound once: a method value built per query
	// would cost an allocation each time.
	isLive func(guid.GUID) bool

	// memo holds the pattern profile answers (memoised); memoMu serialises
	// the installs that replace it.
	memo   atomic.Pointer[profileMemo]
	memoMu sync.Mutex

	// snap is the member tables below as the query and wiring paths read
	// them (Submit's owner lookup, Component, Primers), without a lock. A
	// change under mu clears it, and the first reader after the change
	// rebuilds it under mu, so adding n members copies the tables once, not
	// n times.
	snap atomic.Pointer[members]

	// mu serialises the changes of the member tables and guards the
	// deferred queries, the silenced set and the stats sources. A query
	// takes it only to defer itself.
	mu    sync.Mutex
	comps map[guid.GUID]entity.CE
	// primers indexes the members of comps that are configuration.Primers,
	// so priming a plan never looks up its other leaves.
	primers  map[guid.GUID]configuration.Primer
	caas     map[guid.GUID]*entity.CAA
	silenced guid.Set // components excluded from auto-renewal (failure injection)
	pending  map[guid.GUID]*pendingQuery
	closed   bool

	renewTimer clock.Timer
	watchOff   func()
	profSub    guid.GUID

	batchMaxEvents int
	batchMaxDelay  time.Duration
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

	// Metrics. Every query counts in QueriesSubmitted, and every executed
	// one in QueriesExecuted, striped by the query's owner so that
	// concurrent queries of different owners write different words.
	QueriesSubmitted metrics.StripedCounter
	QueriesDeferred  metrics.Counter
	QueriesExecuted  metrics.StripedCounter
	// RemoteBatchesSent / RemoteEventsSent count the Range Service's
	// outbound event traffic to remote endpoints: wire messages shipped and
	// the events they carried (coalesced or not).
	RemoteBatchesSent metrics.Counter
	RemoteEventsSent  metrics.Counter
	// RemoteSendFailures counts wire sends to remote components that the
	// transport rejected (unknown destination, closed endpoint).
	RemoteSendFailures metrics.Counter
}

// DefaultBatchMaxDelay is the outbound flush deadline used when
// Config.BatchMaxDelay is not positive.
const DefaultBatchMaxDelay = 2 * time.Millisecond

// members is one state of a Range's member tables: the components, the
// Primers among them, the applications, and whether the Range is closed.
// Nothing writes it once it is published.
type members struct {
	comps   map[guid.GUID]entity.CE
	primers map[guid.GUID]configuration.Primer
	caas    map[guid.GUID]*entity.CAA
	closed  bool
}

// pendingQuery is a stored query awaiting its When condition. trigger and
// timer are written under Range.mu while the query is pending, and read by
// whoever takes it out of Range.pending.
type pendingQuery struct {
	q       query.Query
	trigger guid.GUID // mediator subscription id watching for the trigger
	timer   clock.Timer
}

// Result is the synchronous answer to a query submission.
type Result struct {
	// Query echoes the submitted query's id.
	Query guid.GUID
	// Profiles answers ModeProfile with the Profile Manager's stored
	// profiles themselves: frozen and shared with the store and every other
	// answer, so read-only, under the same contract as
	// profile.Candidate.Profile and resolver.Configuration.Root. A caller
	// that wants to change one changes a Clone. The slice is read-only too:
	// a pattern query's answer is one slice shared by every answer to that
	// pattern, its capacity equal to its length so that an append copies.
	Profiles []*profile.Profile
	// Advertisement and Provider answer ModeAdvertisement. Advertisement is
	// the stored profile's own, read-only like Profiles.
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
	if cfg.BatchMaxDelay <= 0 {
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
		primers:  make(map[guid.GUID]configuration.Primer),
		caas:     make(map[guid.GUID]*entity.CAA),
		silenced: guid.NewSet(),
		pending:  make(map[guid.GUID]*pendingQuery),

		batchMaxEvents: cfg.BatchMaxEvents,
		batchMaxDelay:  cfg.BatchMaxDelay,
		quota:          cfg.PublisherQuota,
	}
	r.registrar = registry.New(registry.Config{Clock: cfg.Clock, Lease: cfg.Lease})
	r.isLive = r.registrar.IsLive
	var medOpts []mediator.Option
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
	// A zero repair budget takes the configuration runtime's default (8).
	r.runtime = configuration.New(r.med, r.res, r, 0)

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

// members returns the current member snapshot: a pointer load, unless
// the members changed since the last reader.
//
//lint:hotpath
func (r *Range) members() *members {
	if m := r.snap.Load(); m != nil {
		return m
	}
	//lint:allow hotpath cold rebuild: once per membership change, by the first reader after it
	return r.rebuildMembers()
}

// rebuildMembers publishes a snapshot of the member tables under mu,
// unless another reader has since the last change, and returns it.
func (r *Range) rebuildMembers() *members {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.snap.Load(); m != nil {
		return m
	}
	m := &members{
		comps:   maps.Clone(r.comps),
		primers: maps.Clone(r.primers),
		caas:    maps.Clone(r.caas),
		closed:  r.closed,
	}
	r.snap.Store(m)
	return m
}

// Component implements configuration.Components from the member snapshot.
//
//lint:hotpath
func (r *Range) Component(id guid.GUID) (entity.CE, bool) {
	ce, ok := r.members().comps[id]
	return ce, ok
}

// Primers implements configuration.Components from one member snapshot,
// from whichever side is smaller: with fewer primers than leaves it
// searches the strictly ascending leaves for each primer, otherwise it
// looks each leaf up in the primer index.
//
//lint:hotpath
func (r *Range) Primers(leaves []guid.GUID, dst []configuration.Primer) []configuration.Primer {
	primers := r.members().primers
	if len(primers) < len(leaves) {
		for id, p := range primers {
			if _, ok := slices.BinarySearchFunc(leaves, id, guid.Compare); ok {
				dst = append(dst, p)
			}
		}
		return dst
	}
	for _, id := range leaves {
		if p, ok := primers[id]; ok {
			dst = append(dst, p)
		}
	}
	return dst
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
	if p, ok := ce.(configuration.Primer); ok {
		r.primers[ce.ID()] = p
	}
	r.snap.Store(nil)
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
	r.snap.Store(nil)
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
	m := r.members()
	if m.closed {
		return nil, ErrClosed
	}
	owner := m.caas[q.Owner]
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r.QueriesSubmitted.Inc(q.Owner)

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

// submitProfile answers a profile request with the stored profiles the
// finders return, shared read-only: nothing is copied per answer.
func (r *Range) submitProfile(q query.Query) (*Result, error) {
	res := &Result{Query: q.ID}
	switch q.What.Kind() {
	case "entity":
		p, err := r.profiles.Lookup(q.What.Entity)
		if err != nil {
			return nil, err
		}
		res.Profiles = []*profile.Profile{p}
	case "entity-type":
		res.Profiles = r.profiles.FindByEntityType(q.What.EntityType)
	case "pattern":
		ps, ok := r.memoised(q.What.Pattern)
		if !ok {
			ps = r.findProfiles(q.What.Pattern)
		}
		res.Profiles = ps
	}
	return res, nil
}

// profileMemo is a set of pattern profile answers found while the profile
// store and the type registry stood at the generations it names. Nothing
// writes it once it is published.
type profileMemo struct {
	profiles, types uint64
	answers         map[ctxtype.Type][]*profile.Profile
}

// maxProfileMemo bounds the wanted types a profile memo holds: a miss
// that finds the memo full starts a new one.
const maxProfileMemo = 64

// memoised returns the memo's answer for want: the stored profiles that
// provide it, in FindProviders order, as one frozen slice shared by every
// caller while neither the profile store nor the type registry moves. It
// reads the memo through an atomic pointer and takes no lock of the
// Range's own.
//
//lint:hotpath
func (r *Range) memoised(want ctxtype.Type) ([]*profile.Profile, bool) {
	m := r.memo.Load()
	if m == nil || m.profiles != r.profiles.Generation() || m.types != r.types.Generation() {
		return nil, false
	}
	ps, ok := m.answers[want]
	return ps, ok
}

// findProfiles answers a memo miss from the Profile Manager, and memoises
// the answer under the generations read before it was found unless the
// memo has moved past either of them meanwhile.
func (r *Range) findProfiles(want ctxtype.Type) []*profile.Profile {
	gp, gt := r.profiles.Generation(), r.types.Generation()
	cands := r.profiles.FindProviders(want, r.types)
	ps := make([]*profile.Profile, len(cands))
	for i, c := range cands {
		ps[i] = c.Profile
	}
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	next := &profileMemo{profiles: gp, types: gt}
	switch old := r.memo.Load(); {
	case old == nil:
	case old.profiles == gp && old.types == gt:
		if len(old.answers) < maxProfileMemo {
			next.answers = maps.Clone(old.answers)
		}
	case gp < old.profiles || gt < old.types:
		return ps
	}
	if next.answers == nil {
		next.answers = make(map[ctxtype.Type][]*profile.Profile, 1)
	}
	next.answers[want] = ps
	r.memo.Store(next)
	return ps
}

// submitAdvertisement resolves the best service provider and returns its
// advertisement, read from the profile the resolver ranked: a provider that
// departs once resolved is still this query's answer. Only the root of the
// resolution is read, so none is minted as a configuration.
func (r *Range) submitAdvertisement(q query.Query) (*Result, error) {
	root, err := r.res.ResolveRoot(q, r.resolveContext(q))
	if err != nil {
		return nil, err
	}
	p := root.Profile
	return &Result{
		Query:         q.ID,
		Advertisement: p.Advertisement,
		Provider:      p.Entity,
	}, nil
}

// execute resolves and instantiates a subscription-mode query now.
func (r *Range) execute(q query.Query, owner *entity.CAA) (*Result, error) {
	rctx := r.resolveContext(q)
	cfg, err := r.res.Resolve(q, rctx)
	if err != nil {
		return nil, err
	}
	// Root delivery is batched end to end: a burst of root outputs crosses
	// the mediator as one slice and lands in the CAA (or its remote proxy's
	// outbound coalescer) under a single lock acquisition.
	if err := r.runtime.InstantiateBatch(cfg, rctx, owner.ConsumeAll); err != nil {
		return nil, err
	}
	// An owner that departed while the query was resolved and wired may have
	// been scanned for before the configuration existed: it goes now, unless
	// the scan already took it.
	if !r.registrar.IsLive(q.Owner) {
		_ = r.runtime.Teardown(cfg.ID)
		return nil, fmt.Errorf("%w: %s", ErrNoCAA, q.Owner.Short())
	}
	r.QueriesExecuted.Inc(q.Owner)
	return &Result{Query: q.ID, Configuration: cfg.ID}, nil
}

// defer_ stores a query until its When clause fires (CAPA configuration X:
// "stores it until its temporal constraints are satisfied").
func (r *Range) defer_(q query.Query, owner *entity.CAA) (*Result, error) {
	pq := &pendingQuery{q: q}
	r.mu.Lock()
	r.pending[q.ID] = pq
	r.mu.Unlock()
	r.QueriesDeferred.Inc()

	fire := func() {
		if !r.takePending(q.ID) {
			return
		}
		// Execute with the When stripped (it has fired).
		qq := q
		qq.When = query.When{}
		if _, err := r.execute(qq, owner); err != nil {
			// Deliver the failure as a query_error event so the CAA learns.
			r.deliverError(owner, q, err)
		}
	}

	var trigger guid.GUID
	var timer clock.Timer
	if tr := q.When.Trigger; tr != nil {
		rec, err := r.med.Subscribe(r.cs, *tr, func(event.Event) { fire() },
			mediator.SubOptions{OneShot: true})
		if err != nil {
			r.takePending(q.ID)
			return nil, err
		}
		trigger = rec.ID
	}
	if !q.When.After.IsZero() {
		d := q.When.After.Sub(r.clk.Now())
		timer = r.clk.AfterFunc(d, fire)
	}
	// The query may have fired, or its owner departed, while the watchers
	// were set up; then they are stopped here.
	r.mu.Lock()
	_, still := r.pending[q.ID]
	if still {
		pq.trigger, pq.timer = trigger, timer
	}
	r.mu.Unlock()
	if !still {
		r.unwatch(trigger, timer)
	}
	if !q.When.Expires.IsZero() {
		d := q.When.Expires.Sub(r.clk.Now())
		r.clk.AfterFunc(d, func() {
			if r.takePending(q.ID) {
				r.deliverError(owner, q, ErrExpiredQuery)
			}
		})
	}
	return &Result{Query: q.ID, Deferred: true}, nil
}

// takePending removes deferred query id from the pending set and stops
// what watches for its When clause. It reports false when the query has
// already fired, expired or been dropped.
func (r *Range) takePending(id guid.GUID) bool {
	r.mu.Lock()
	pq, ok := r.pending[id]
	delete(r.pending, id)
	r.mu.Unlock()
	if ok {
		r.unwatch(pq.trigger, pq.timer)
	}
	return ok
}

// unwatch cancels a deferred query's trigger subscription and stops its
// timer; either may be unset.
func (r *Range) unwatch(trigger guid.GUID, timer clock.Timer) {
	if !trigger.IsNil() {
		_ = r.med.Cancel(trigger)
	}
	if timer != nil {
		timer.Stop()
	}
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
// against pub in the Drops ledger rather than their own Source, so a
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

// BatchMaxEvents reports the configured per-destination outbound batch
// ceiling (0 or 1: one-event batches, same flow control).
func (r *Range) BatchMaxEvents() int { return r.batchMaxEvents }

// BatchMaxDelay reports the flush deadline for partially filled outbound
// batches, which also paces a credit-throttled link (never zero).
func (r *Range) BatchMaxDelay() time.Duration { return r.batchMaxDelay }

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

// QuotaRejects returns the ledger of events per-publisher admission
// control refused, each charged to its publisher (empty with quotas
// disabled).
func (r *Range) QuotaRejects() *metrics.Ledger { return r.med.QuotaRejects() }

// DispatchStats returns the Event Mediator's bus-wide dispatch counters.
func (r *Range) DispatchStats() eventbus.Stats {
	return r.med.Stats()
}

// Drops returns the ledger of dispatched events discarded from full
// subscription queues, each charged to its publisher or ingest endpoint:
// For(pub) is the figure a flow-credit ack to that endpoint carries.
func (r *Range) Drops() *metrics.Ledger { return r.med.Drops() }

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
	hits, misses := r.res.CacheStats()
	out := map[string]float64{
		"eventbus.published":        float64(st.Published),
		"eventbus.delivered":        float64(st.Delivered),
		"eventbus.subs":             float64(st.Subs),
		"eventbus.index_hits":       float64(st.IndexHits),
		"eventbus.residual_scanned": float64(st.ResidualScanned),
		"eventbus.index_hit_ratio":  r.med.IndexHitRatio(),
		"eventbus.shards":           float64(len(r.med.ShardStats())),

		"queries.submitted": float64(r.QueriesSubmitted.Value()),
		"queries.deferred":  float64(r.QueriesDeferred.Value()),
		"queries.executed":  float64(r.QueriesExecuted.Value()),

		"resolver.cache_hits":   float64(hits),
		"resolver.cache_misses": float64(misses),

		"remote.batches_sent":                 float64(r.RemoteBatchesSent.Value()),
		"remote.events_sent":                  float64(r.RemoteEventsSent.Value()),
		"remote.send_failures":                float64(r.RemoteSendFailures.Value()),
		"remote.flushes":                      float64(r.flowStats.Flushes.Value()),
		"remote.backpressure.throttled":       float64(r.flowStats.Throttled.Value()),
		"remote.backpressure.drops_reported":  float64(r.flowStats.DropsReported.Value()),
		"remote.backpressure.throttle_events": float64(r.flowStats.ThrottleEvents.Value()),
	}
	for i, ss := range r.med.ShardStats() {
		shard := fmt.Sprintf("eventbus.shard%02d.", i)
		out[shard+"published"] = float64(ss.Published)
		out[shard+"delivered"] = float64(ss.Delivered)
		out[shard+"dropped"] = float64(ss.Dropped)
	}
	// Per-origin losses: each family's total under its key K, its top eight
	// origins (Ledger.Top) under K.from.<short GUID> and the rest under
	// K.from.other, so a stats round trip ships a bounded number of keys
	// however many devices a high-churn Range has lost events for. The keys
	// sum cleanly in fleet rollups (an origin's figures across Ranges add
	// up).
	for _, fam := range r.lossFamilies() {
		out[fam.key] = float64(fam.ledger.Total())
		for _, sh := range fam.ledger.Top() {
			out[LossKey(fam.key, sh.Src)] += float64(sh.N)
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

// lossFamily is one per-origin loss ledger under its StatsMap key.
type lossFamily struct {
	key    string
	ledger *metrics.Ledger
}

// lossFamilies lists the Range's loss ledgers: the events its Event
// Mediator dropped from full queues and refused at admission, and those its
// outbound coalescers shed.
//
//lint:bounded
func (r *Range) lossFamilies() [3]lossFamily {
	return [3]lossFamily{
		{"eventbus.dropped", r.med.Drops()},
		{"eventbus.quota.rejected", r.med.QuotaRejects()},
		{"remote.backpressure.shed", &r.flowStats.Shed},
	}
}

// LossKey is the StatsMap key of one origin's share of the loss family
// whose total is under k: k.from.<src.Short()>, or k.from.other for the
// remainder (a nil src).
func LossKey(k string, src guid.GUID) string {
	if src.IsNil() {
		return k + ".from.other"
	}
	return k + ".from." + src.Short()
}

// resolveContext builds the resolver context for a query: owner location
// (for closest-to-me) and registrar liveness, with the registrar generation
// read before resolving so that the resolver's cache can serve the query.
func (r *Range) resolveContext(q query.Query) resolver.Context {
	ctx := resolver.Context{
		LiveOnly: r.isLive,
		LiveGen:  r.registrar.Generation(),
	}
	if p, err := r.profiles.Lookup(q.Owner); err == nil {
		ctx.OwnerLocation = p.Location
	}
	return ctx
}

// handleDeparture is the registrar watcher: cancel the departed entity's
// subscriptions and deferred queries, drop its profile, tear down or repair
// configurations, announce.
func (r *Range) handleDeparture(reg registry.Registration, why registry.Reason) {
	var dropped []*pendingQuery
	r.mu.Lock()
	ce, isComp := r.comps[reg.Entity]
	_, isCAA := r.caas[reg.Entity]
	if isComp || isCAA {
		delete(r.comps, reg.Entity)
		delete(r.primers, reg.Entity)
		delete(r.caas, reg.Entity)
		r.snap.Store(nil)
	}
	r.silenced.Remove(reg.Entity)
	for id, pq := range r.pending {
		if pq.q.Owner == reg.Entity {
			delete(r.pending, id)
			dropped = append(dropped, pq)
		}
	}
	r.mu.Unlock()

	for _, pq := range dropped {
		r.unwatch(pq.trigger, pq.timer)
	}
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
	ce, ok := r.Component(e.Source)
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
	r.snap.Store(nil)
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
