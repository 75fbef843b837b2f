// Package configuration implements the configuration runtime: it turns the
// Query Resolver's subscription graphs into live event plumbing through the
// Event Mediator, monitors the providers involved, and repairs the graph
// when a provider departs or fails.
//
// This is the paper's adaptivity requirement made concrete: "It will also
// adjust the composition of these components dynamically in the case of
// environment changes, thus improving service and fault tolerance while
// minimising user intervention" (Section 6). Repair re-runs resolution for
// the broken sub-graph only, preferring semantically equivalent providers
// (a dead door sensor's duties can fall to a W-LAN base station), and is
// bounded by a per-configuration repair budget — the paper's future-work
// item 3 asks for exactly such "bounds on acceptable adaptation".
//
// The plumbing is one mediator subscription per consumer input — per
// (consumer, event type) pair of the graph — plus one for the root, not one
// per edge: an input fed by several producers (an object-location CE over
// every door sensor of a building) is a single subscription whose source set
// names them all. Its events reach the consumer from one delivery goroutine,
// in publish order across all of its producers.
//
// The wiring comes from the configuration's resolver.Plan, computed once per
// resolution and shared read-only by every configuration the resolver's
// cache serves from it: each Input's producers are an immutable guid.Sorted
// set, which the mediator and the bus keep as they are. Priming
// asks the Range's primer index which of the plan's leaves can be primed,
// in one Primers call per instantiate: a plan of many leaves that are no
// Primers (a building's door sensors) costs no lookup per leaf.
//
// The Runtime's table of live configurations, striped by configuration id
// as the mediator's subscription table is, is the one record of what it
// wired: each live configuration keeps its graph and the ids of its
// subscriptions, and teardown and repair cancel exactly those ids. Queries
// wiring and tearing down different configurations take different stripe
// locks. A departure is handled by one scan of every stripe's live
// configurations: those whose querying application departed are torn down,
// and those whose graph binds the departed entity are repaired. A repair
// builds a fresh plan and primes the leaves it newly binds.
package configuration

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/metrics"
	"sci/internal/query"
	"sci/internal/resolver"
)

// Components resolves local component GUIDs to their CE implementations so
// the runtime can deliver edge events into CE inputs. A Range's Context
// Server provides this.
type Components interface {
	// Component returns the CE of one local component.
	Component(guid.GUID) (entity.CE, bool)
	// Primers appends to dst, in no particular order, every local
	// component among leaves that is a Primer, in one lookup. leaves is
	// strictly ascending.
	Primers(leaves []guid.GUID, dst []Primer) []Primer
}

// ComponentsFunc adapts a func to Components.
type ComponentsFunc func(guid.GUID) (entity.CE, bool)

// Component implements Components.
func (f ComponentsFunc) Component(g guid.GUID) (entity.CE, bool) { return f(g) }

// Primers implements Components by calling f once per leaf.
func (f ComponentsFunc) Primers(leaves []guid.GUID, dst []Primer) []Primer {
	for _, id := range leaves {
		if ce, ok := f(id); ok {
			if p, ok := ce.(Primer); ok {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// BatchDeliverFunc receives the configuration's root output events in runs:
// every event queued since the delivery loop's last wakeup arrives as one
// slice. Consumers that feed an outbound coalescer (remote proxies) take
// their lock once per run instead of once per event. The slice may be a run
// shared with other subscribers: it is read-only and must not be retained.
type BatchDeliverFunc func([]event.Event)

// Primer is implemented by source CEs that can re-emit their current state
// on demand. After instantiating a configuration the runtime primes its
// leaves, and after a repair the leaves it newly bound, so subscribers
// receive an immediate snapshot instead of waiting for the next state
// change (initial-value semantics; CAPA's printer selection depends on it).
type Primer interface {
	Prime()
}

// Status describes an active configuration.
type Status struct {
	// ID is the configuration id.
	ID guid.GUID
	// Providers are the entities currently bound.
	Providers []guid.GUID
	// Repairs counts successful repairs so far.
	Repairs int
	// Subscriptions counts live mediator subscriptions: one per consumer
	// input, however many producers feed it, plus the root delivery until a
	// one-shot root has fired.
	Subscriptions int
}

// Runtime instantiates, monitors and repairs configurations. Construct with
// New.
type Runtime struct {
	med   *mediator.Mediator
	res   *resolver.Resolver
	comps Components

	// MaxRepairs bounds adaptation per configuration (stability control);
	// default 8.
	maxRepairs int

	// stripes hold the live configurations, striped by configuration id as
	// the mediator's subscription table is, so that instantiates and
	// teardowns of different configurations take different locks.
	stripes [cfgStripes]cfgStripe

	// Repairs/RepairFailures count repair outcomes.
	Repairs        metrics.Counter
	RepairFailures metrics.Counter
}

// cfgStripes is how many stripes a Runtime's table of live configurations
// has.
const cfgStripes = 16

// cfgStripe is one stripe of the live configurations, padded to a cache
// line of its own.
type cfgStripe struct {
	mu     sync.Mutex
	active map[guid.GUID]*activeCfg // guarded by mu
	_      [48]byte
}

// stripe returns the stripe of configuration id. Byte 0 is the kind tag,
// the same for every configuration id, so hash the random bytes.
func (r *Runtime) stripe(id guid.GUID) *cfgStripe {
	return &r.stripes[binary.BigEndian.Uint32(id[1:5])%cfgStripes]
}

// activeCfg is one live configuration. A repair replaces cfg.Root,
// cfg.Plan and subs under its stripe's lock, so read them under it too.
type activeCfg struct {
	cfg     *resolver.Configuration
	deliver BatchDeliverFunc
	rctx    resolver.Context
	// subs are the ids of the mediator subscriptions wired for cfg. When
	// InstantiateBatch wires no more than fit, they live in ids, so the
	// record and its ids are one allocation.
	subs    []guid.GUID
	ids     [inlineSubs]guid.GUID
	repairs int
}

// inlineSubs is how many subscription ids an activeCfg holds without a
// slice of its own: one consumer input and the root, the shape of a
// location query's graph.
const inlineSubs = 2

// edgeQueueLen is the per-subscription queue capacity for configuration
// plumbing: generous enough to absorb sensor bursts without dropping
// context updates (freshest-wins drop still applies beyond it). A consumer
// input is one subscription, so the bound is per input and shared by all of
// the producers feeding it; a discarded event is still attributed to its
// own Source. It is a bound, not an up-front cost: the bus commits an
// input's ring, and starts its delivery goroutine, at the input's first
// event, so a configuration torn down before its sources fire pays for
// neither.
const edgeQueueLen = 1024

// Errors.
var (
	ErrUnknownConfiguration = errors.New("configuration: unknown configuration")
	ErrRepairBudget         = errors.New("configuration: repair budget exhausted")
	// ErrNamedEntityFailed reports a repair after the failure of the entity
	// the query names (query.What.Entity): no other provider is that entity.
	ErrNamedEntityFailed = errors.New("configuration: the entity the query names failed")
)

// New builds a Runtime.
func New(med *mediator.Mediator, res *resolver.Resolver, comps Components, maxRepairs int) *Runtime {
	if maxRepairs <= 0 {
		maxRepairs = 8
	}
	r := &Runtime{
		med:        med,
		res:        res,
		comps:      comps,
		maxRepairs: maxRepairs,
	}
	for i := range r.stripes {
		r.stripes[i].active = make(map[guid.GUID]*activeCfg)
	}
	return r
}

// InstantiateBatch wires cfg into the mediator: one subscription per
// consumer input of cfg.Plan, accepting every producer bound to that input
// and delivering into the consumer CE's HandleInput, plus the root
// subscription delivering to the querying application through
// Mediator.SubscribeBatch, so deliver (which may be nil) receives every
// queued root event of a wakeup as one slice. Then it primes the plan's
// leaves. rctx is remembered for repairs.
func (r *Runtime) InstantiateBatch(cfg *resolver.Configuration, rctx resolver.Context, deliver BatchDeliverFunc) error {
	if cfg == nil || cfg.Root == nil || cfg.Plan == nil {
		return errors.New("configuration: nil configuration")
	}
	// Read before the configuration is live: a repair replaces cfg.Plan.
	plan := cfg.Plan
	ac := &activeCfg{cfg: cfg, deliver: deliver, rctx: rctx}
	subs, err := r.wire(cfg.Root, plan, cfg.Query, deliver, ac.ids[:0])
	if err != nil {
		return err
	}
	ac.subs = subs
	st := r.stripe(cfg.ID)
	st.mu.Lock()
	st.active[cfg.ID] = ac
	st.mu.Unlock()
	r.prime(plan.Leaves)
	return nil
}

// prime asks every local leaf that is a Primer to re-emit its current
// state; one Primers call finds them.
func (r *Runtime) prime(leaves []guid.GUID) {
	if len(leaves) == 0 {
		return
	}
	for _, p := range r.comps.Primers(leaves, nil) {
		p.Prime()
	}
}

// wire establishes all subscriptions for a graph and returns their ids,
// appended to subs (empty; its storage is used when it has room for them
// all): one per input of plan, plus the root delivery to q's owner when
// deliver is not nil. An input with a single producer keeps the filter
// {Type, Source}; a fan-in input filters on {Type} and hands its producer
// set to the mediator as its source set. On error, whatever was wired is
// cancelled.
func (r *Runtime) wire(root *resolver.Binding, plan *resolver.Plan, q query.Query, deliver BatchDeliverFunc, subs []guid.GUID) (_ []guid.GUID, err error) {
	var rec mediator.Record
	if n := len(plan.Inputs) + 1; cap(subs) < n {
		subs = make([]guid.GUID, 0, n)
	}
	defer func() {
		if err != nil {
			r.cancel(subs)
		}
	}()
	for _, in := range plan.Inputs {
		consumer, ok := r.comps.Component(in.Consumer)
		if !ok {
			return nil, fmt.Errorf("configuration: consumer %s not local", in.Consumer.Short())
		}
		filter := event.Filter{Type: in.Type}
		opts := mediator.SubOptions{QueueLen: edgeQueueLen}
		if in.Producers.Len() == 1 {
			filter.Source = in.Producers.At(0)
		} else {
			opts.Sources = in.Producers
		}
		// Batch-capable consumers (remote proxies feeding a wire coalescer)
		// take a burst as one slice; plain CEs stay per event.
		if bc, ok := consumer.(entity.BatchInput); ok {
			rec, err = r.med.SubscribeBatch(in.Consumer, filter, bc.HandleInputAll, opts)
		} else {
			rec, err = r.med.Subscribe(in.Consumer, filter, consumer.HandleInput, opts)
		}
		if err != nil {
			return nil, err
		}
		subs = append(subs, rec.ID)
	}
	// Root delivery to the querying application: batched, so a burst crosses
	// the mediator→application edge as one slice.
	if deliver != nil {
		rootFilter := event.Filter{Type: root.Output, Source: root.Provider}
		opts := mediator.SubOptions{OneShot: q.Mode == query.ModeOnce, QueueLen: edgeQueueLen}
		rec, err = r.med.SubscribeBatch(q.Owner, rootFilter, deliver, opts)
		if err != nil {
			return nil, err
		}
		subs = append(subs, rec.ID)
	}
	return subs, nil
}

// cancel cancels the given subscriptions. An id the mediator no longer
// knows is skipped: a one-shot root that fired, or a subscription its
// owner's departure already cancelled.
func (r *Runtime) cancel(subs []guid.GUID) {
	for _, id := range subs {
		_ = r.med.Cancel(id)
	}
}

// Teardown removes the configuration and its subscriptions.
func (r *Runtime) Teardown(id guid.GUID) error {
	st := r.stripe(id)
	st.mu.Lock()
	ac, ok := st.active[id]
	var subs []guid.GUID
	if ok {
		delete(st.active, id)
		subs = ac.subs
	}
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConfiguration, id.Short())
	}
	r.cancel(subs)
	return nil
}

// Active returns the status of every live configuration, ordered by id.
func (r *Runtime) Active() []Status {
	var out []Status
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for id, ac := range st.active {
			live := 0
			for _, s := range ac.subs {
				if _, ok := r.med.Get(s); ok {
					live++
				}
			}
			out = append(out, Status{
				ID:            id,
				Providers:     ac.cfg.Providers(),
				Repairs:       ac.repairs,
				Subscriptions: live,
			})
		}
		st.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b Status) int { return guid.Compare(a.ID, b.ID) })
	return out
}

// HandleDeparture is the hook the Registrar watcher calls when entity
// departs. One scan of the live configurations tears down those that
// entity queried for, and repairs those whose graph binds it, in
// configuration-id order. Returns the number of configurations repaired;
// one whose repair fails is torn down and counted in RepairFailures.
func (r *Runtime) HandleDeparture(entity guid.GUID) int {
	var orphaned, affected []guid.GUID
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for id, ac := range st.active {
			switch {
			case ac.cfg.Query.Owner == entity:
				delete(st.active, id)
				orphaned = append(orphaned, ac.subs...)
			case binds(ac.cfg.Root, entity):
				affected = append(affected, id)
			}
		}
		st.mu.Unlock()
	}
	r.cancel(orphaned)
	guid.Sort(affected)

	repaired := 0
	for _, id := range affected {
		if err := r.Repair(id, entity); err == nil {
			repaired++
		} else {
			// A configuration that cannot be repaired is torn down: the
			// application sees the stream stop rather than silently stall.
			// One torn down meanwhile by someone else is no failure.
			if r.Teardown(id) == nil {
				r.RepairFailures.Inc()
			}
		}
	}
	return repaired
}

// binds reports whether provider is bound anywhere in the graph under b.
func binds(b *resolver.Binding, provider guid.GUID) bool {
	if b == nil {
		return false
	}
	if b.Provider == provider {
		return true
	}
	for _, in := range b.Inputs {
		if binds(in, provider) {
			return true
		}
	}
	return false
}

// Repair rebinds the parts of configuration id that depended on the failed
// provider, then rewires its subscriptions from a fresh plan and primes
// the leaves the old plan did not have. A query that names one entity
// cannot be repaired after that entity fails: Repair returns
// ErrNamedEntityFailed, and HandleDeparture tears the configuration down
// rather than answer with another provider's events. Subscription churn
// during repair can drop in-flight events; consumers detect the gap via
// sequence numbers. A configuration torn down while it is being rewired
// keeps none of the new subscriptions.
func (r *Runtime) Repair(id, failed guid.GUID) error {
	st := r.stripe(id)
	st.mu.Lock()
	ac, ok := st.active[id]
	if !ok {
		st.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownConfiguration, id.Short())
	}
	if ac.repairs >= r.maxRepairs {
		st.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrRepairBudget, r.maxRepairs)
	}
	root, oldPlan := ac.cfg.Root, ac.cfg.Plan
	st.mu.Unlock()
	if ac.cfg.Query.What.Entity == failed {
		return fmt.Errorf("%w: %s", ErrNamedEntityFailed, failed.Short())
	}

	rctx := ac.rctx
	if rctx.Exclude == nil {
		rctx.Exclude = guid.NewSet()
	}
	rctx.Exclude.Add(failed)
	newRoot, err := r.repairBinding(root, ac.cfg.Query, failed, rctx)
	if err != nil {
		return err
	}
	plan := resolver.NewPlan(newRoot)

	// Rewire: drop the old subscriptions, then create the new set.
	st.mu.Lock()
	old := ac.subs
	ac.subs = nil
	st.mu.Unlock()
	r.cancel(old)
	subs, err := r.wire(newRoot, plan, ac.cfg.Query, ac.deliver, nil)
	if err != nil {
		return err
	}

	st.mu.Lock()
	if st.active[id] != ac {
		st.mu.Unlock()
		r.cancel(subs)
		return fmt.Errorf("%w: %s", ErrUnknownConfiguration, id.Short())
	}
	ac.cfg.Root, ac.cfg.Plan = newRoot, plan
	stale := ac.subs // wired by a concurrent repair of the same configuration
	ac.subs = subs
	ac.repairs++
	st.mu.Unlock()
	r.cancel(stale)
	r.prime(added(plan.Leaves, oldPlan.Leaves))

	r.Repairs.Inc()
	return nil
}

// added returns the members of the strictly ascending set now that the
// strictly ascending set before lacks.
func added(now, before []guid.GUID) []guid.GUID {
	var out []guid.GUID
	for _, g := range now {
		for len(before) > 0 && guid.Less(before[0], g) {
			before = before[1:]
		}
		if len(before) == 0 || before[0] != g {
			out = append(out, g)
		}
	}
	return out
}

// repairBinding returns a binding tree equal to b but with every subtree
// rooted at the failed provider re-resolved.
func (r *Runtime) repairBinding(b *resolver.Binding, q query.Query, failed guid.GUID, rctx resolver.Context) (*resolver.Binding, error) {
	if b == nil {
		return nil, nil
	}
	if b.Provider == failed {
		return r.res.ResolveReplacement(q, b.Want, failed, rctx)
	}
	out := &resolver.Binding{
		Provider: b.Provider,
		Want:     b.Want,
		Output:   b.Output,
		Profile:  b.Profile,
	}
	for _, in := range b.Inputs {
		sub, err := r.repairBinding(in, q, failed, rctx)
		if err != nil {
			return nil, err
		}
		out.Inputs = append(out.Inputs, sub)
	}
	return out, nil
}
