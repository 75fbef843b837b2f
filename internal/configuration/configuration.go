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
package configuration

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sci/internal/ctxtype"
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
	Component(guid.GUID) (entity.CE, bool)
}

// ComponentsFunc adapts a func to Components.
type ComponentsFunc func(guid.GUID) (entity.CE, bool)

// Component implements Components.
func (f ComponentsFunc) Component(g guid.GUID) (entity.CE, bool) { return f(g) }

// DeliverFunc receives the configuration's root output events (bound for
// the querying CAA) one at a time.
type DeliverFunc func(event.Event)

// BatchDeliverFunc receives the configuration's root output events in runs:
// every event queued since the delivery loop's last wakeup arrives as one
// slice. Consumers that feed an outbound coalescer (remote proxies) take
// their lock once per run instead of once per event. The slice may be a run
// shared with other subscribers: it is read-only and must not be retained.
type BatchDeliverFunc func([]event.Event)

// Primer is implemented by source CEs that can re-emit their current state
// on demand. After instantiating a configuration the runtime primes its
// sources so subscribers receive an immediate snapshot instead of waiting
// for the next state change (initial-value semantics; CAPA's printer
// selection depends on it).
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
	// input, however many producers feed it, plus the root delivery.
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

	mu     sync.Mutex
	active map[guid.GUID]*activeCfg
	// byProv lists, per provider, the configurations bound to it, in no
	// particular order. An entry that empties keeps its slice, so binding
	// the same providers again allocates nothing; the entry goes when its
	// provider departs (HandleDeparture), so the table is bounded by the
	// providers that are still registered.
	byProv map[guid.GUID][]guid.GUID

	// RepairLatency records time from failure report to repaired plumbing
	// (experiment E8); Repairs/RepairFailures count outcomes.
	RepairLatency  metrics.Histogram
	Repairs        metrics.Counter
	RepairFailures metrics.Counter
}

type activeCfg struct {
	cfg *resolver.Configuration
	// providers is cfg.Providers(), read and written under Runtime.mu:
	// computed once per instantiation and per repair, then reused to index,
	// unindex and report status.
	providers []guid.GUID
	deliver   BatchDeliverFunc
	rctx      resolver.Context
	repairs   int
	dead      bool
}

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
)

// New builds a Runtime.
func New(med *mediator.Mediator, res *resolver.Resolver, comps Components, maxRepairs int) *Runtime {
	if maxRepairs <= 0 {
		maxRepairs = 8
	}
	return &Runtime{
		med:        med,
		res:        res,
		comps:      comps,
		maxRepairs: maxRepairs,
		active:     make(map[guid.GUID]*activeCfg),
		byProv:     make(map[guid.GUID][]guid.GUID),
	}
}

// Instantiate wires cfg into the mediator: one subscription per consumer
// input, accepting every producer bound to that input and delivering into
// the consumer CE's HandleInput, plus the root subscription delivering to
// the querying application. rctx is remembered for repairs.
func (r *Runtime) Instantiate(cfg *resolver.Configuration, rctx resolver.Context, deliver DeliverFunc) error {
	var all BatchDeliverFunc
	if deliver != nil {
		all = func(events []event.Event) {
			for i := range events {
				deliver(events[i])
			}
		}
	}
	return r.InstantiateBatch(cfg, rctx, all)
}

// InstantiateBatch is Instantiate with batched root delivery: the root
// subscription is established through Mediator.SubscribeBatch, so deliver
// receives every queued root event of a wakeup as one slice.
func (r *Runtime) InstantiateBatch(cfg *resolver.Configuration, rctx resolver.Context, deliver BatchDeliverFunc) error {
	if cfg == nil || cfg.Root == nil {
		return errors.New("configuration: nil configuration")
	}
	ac := &activeCfg{cfg: cfg, providers: cfg.Providers(), deliver: deliver, rctx: rctx}
	if err := r.wire(ac); err != nil {
		r.med.CancelConfiguration(cfg.ID)
		return err
	}
	r.mu.Lock()
	r.active[cfg.ID] = ac
	r.indexProvidersLocked(ac)
	r.mu.Unlock()
	r.primeSources(cfg.Root)
	return nil
}

// primeSources asks every leaf provider that supports it to re-emit its
// current state.
func (r *Runtime) primeSources(b *resolver.Binding) {
	if b == nil {
		return
	}
	if len(b.Inputs) == 0 {
		if ce, ok := r.comps.Component(b.Provider); ok {
			if p, ok := ce.(Primer); ok {
				p.Prime()
			}
		}
		return
	}
	for _, in := range b.Inputs {
		r.primeSources(in)
	}
}

// wire establishes all subscriptions for the configuration's current graph:
// one per consumer input. Flatten orders the edges by (Consumer, Type,
// Producer), so each input is one run of adjacent edges; edges in another
// order are still wired correctly, an input split across runs just takes
// one subscription per run. An input with a single producer keeps the
// filter {Type, Source}; a fan-in input filters on {Type} and accepts its
// run's producers as a source set.
func (r *Runtime) wire(ac *activeCfg) error {
	cfg := ac.cfg
	edges := cfg.Edges
	for i := 0; i < len(edges); {
		in := edges[i]
		j := i + 1
		for j < len(edges) && edges[j].Consumer == in.Consumer && edges[j].Type == in.Type {
			j++
		}
		run := edges[i:j]
		i = j

		consumer, ok := r.comps.Component(in.Consumer)
		if !ok {
			return fmt.Errorf("configuration: consumer %s not local", in.Consumer.Short())
		}
		filter := event.Filter{Type: in.Type}
		opts := mediator.SubOptions{Configuration: cfg.ID, QueueLen: edgeQueueLen}
		if len(run) == 1 {
			filter.Source = in.Producer
		} else {
			opts.Sources = make([]guid.GUID, len(run))
			for k, e := range run {
				opts.Sources[k] = e.Producer
			}
		}
		// Batch-capable consumers (remote proxies feeding a wire coalescer)
		// take a burst as one slice; plain CEs stay per event.
		if bc, ok := consumer.(entity.BatchInput); ok {
			if _, err := r.med.SubscribeBatch(in.Consumer, filter, bc.HandleInputAll, opts); err != nil {
				return err
			}
			continue
		}
		ce := consumer
		if _, err := r.med.Subscribe(in.Consumer, filter, func(ev event.Event) {
			ce.HandleInput(ev)
		}, opts); err != nil {
			return err
		}
	}
	// Root delivery to the querying application: batched, so a burst crosses
	// the mediator→application edge as one slice.
	if ac.deliver != nil {
		rootFilter := event.Filter{Type: cfg.Root.Output, Source: cfg.Root.Provider}
		opts := mediator.SubOptions{
			Configuration: cfg.ID,
			OneShot:       cfg.Query.Mode == query.ModeOnce,
			QueueLen:      edgeQueueLen,
		}
		if _, err := r.med.SubscribeBatch(cfg.Query.Owner, rootFilter, func(evs []event.Event) {
			ac.deliver(evs)
		}, opts); err != nil {
			return err
		}
	}
	return nil
}

// Teardown removes the configuration and its subscriptions.
func (r *Runtime) Teardown(id guid.GUID) error {
	r.mu.Lock()
	ac, ok := r.active[id]
	if ok {
		delete(r.active, id)
		r.unindexProvidersLocked(ac)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConfiguration, id.Short())
	}
	r.med.CancelConfiguration(id)
	return nil
}

// Active returns the status of every live configuration, ordered by id.
func (r *Runtime) Active() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, 0, len(r.active))
	for id, ac := range r.active {
		out = append(out, Status{
			ID:            id,
			Providers:     slices.Clone(ac.providers),
			Repairs:       ac.repairs,
			Subscriptions: len(r.med.ForConfiguration(id)),
		})
	}
	// Sort by id for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && guid.Less(out[j].ID, out[j-1].ID); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Uses reports whether any active configuration is bound to the provider.
func (r *Runtime) Uses(provider guid.GUID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byProv[provider]) > 0
}

// HandleDeparture repairs every configuration bound to the departed
// provider, in configuration-id order. It is the hook the Registrar watcher
// calls. Returns the number of configurations repaired (configurations
// whose repair fails are torn down). The provider's entry in the provider
// index goes with it.
func (r *Runtime) HandleDeparture(provider guid.GUID) int {
	r.mu.Lock()
	affected := slices.Clone(r.byProv[provider])
	r.mu.Unlock()
	guid.Sort(affected)
	defer func() {
		// Every repair excluded the provider and every failure tore its
		// configuration down, so the entry is empty unless a configuration
		// bound the provider concurrently.
		r.mu.Lock()
		if len(r.byProv[provider]) == 0 {
			delete(r.byProv, provider)
		}
		r.mu.Unlock()
	}()

	repaired := 0
	for _, id := range affected {
		if err := r.Repair(id, provider); err == nil {
			repaired++
		} else {
			// A configuration that cannot be repaired is torn down: the
			// application sees the stream stop rather than silently stall.
			_ = r.Teardown(id)
			r.RepairFailures.Inc()
		}
	}
	return repaired
}

// Repair rebinds the parts of configuration id that depended on the failed
// provider, then rewires its subscriptions. Subscription churn during
// repair can drop in-flight events; consumers detect the gap via sequence
// numbers.
func (r *Runtime) Repair(id, failed guid.GUID) error {
	start := nowMonotonic()
	r.mu.Lock()
	ac, ok := r.active[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownConfiguration, id.Short())
	}
	if ac.repairs >= r.maxRepairs {
		r.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrRepairBudget, r.maxRepairs)
	}
	r.unindexProvidersLocked(ac)
	r.mu.Unlock()

	rctx := ac.rctx
	if rctx.Exclude == nil {
		rctx.Exclude = guid.NewSet()
	}
	rctx.Exclude.Add(failed)

	newRoot, err := r.repairBinding(ac.cfg.Root, ac.cfg.Query, failed, rctx)
	if err != nil {
		// Restore indexing so a later retry can find the configuration.
		r.mu.Lock()
		r.indexProvidersLocked(ac)
		r.mu.Unlock()
		return err
	}
	ac.cfg.Root = newRoot
	ac.cfg.Edges = resolver.Flatten(newRoot)

	// Rewire: drop all old subscriptions, then create the new set.
	r.med.CancelConfiguration(id)
	if err := r.wire(ac); err != nil {
		r.med.CancelConfiguration(id)
		return err
	}

	providers := ac.cfg.Providers()
	r.mu.Lock()
	ac.repairs++
	ac.providers = providers
	r.indexProvidersLocked(ac)
	r.mu.Unlock()

	r.Repairs.Inc()
	r.RepairLatency.Record(nowMonotonic() - start)
	return nil
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

// indexProvidersLocked records ac under each of its providers. ac.providers
// is deduplicated, so each provider lists the configuration once.
func (r *Runtime) indexProvidersLocked(ac *activeCfg) {
	for _, p := range ac.providers {
		r.byProv[p] = append(r.byProv[p], ac.cfg.ID)
	}
}

// unindexProvidersLocked drops ac from the providers it was indexed under.
// An emptied entry stays, with its slice, until its provider departs.
func (r *Runtime) unindexProvidersLocked(ac *activeCfg) {
	id := ac.cfg.ID
	for _, p := range ac.providers {
		ids := r.byProv[p]
		if k := slices.Index(ids, id); k >= 0 {
			last := len(ids) - 1
			ids[k] = ids[last]
			r.byProv[p] = ids[:last]
		}
	}
}

// nowMonotonic returns a monotonic nanosecond reading for latency metrics.
func nowMonotonic() int64 { return int64(time.Since(processStart)) }

var processStart = time.Now()

// RootFilter returns the filter an application needs to receive the
// configuration's answers directly (diagnostics).
func RootFilter(cfg *resolver.Configuration) event.Filter {
	return event.Filter{Type: cfg.Root.Output, Source: cfg.Root.Provider}
}

// OutputType returns the root output type, or wildcard when unknown.
func OutputType(cfg *resolver.Configuration) ctxtype.Type {
	if cfg == nil || cfg.Root == nil {
		return ctxtype.Wildcard
	}
	return cfg.Root.Output
}
