// Package rangesvc implements the Range Service and the discovery sequence
// of the paper's Fig 5 over the transport layer.
//
// "When a Context Server starts up, it deploys a Range Service (RS) to all
// the machines within its jurisdiction. The RS performs the task of
// listening for CAAs or CEs starting up in order to inform them about the
// Range's Registrar. The CAA/CE can then contact the Registrar in order to
// gain access to the infrastructure. Upon completion of the registration
// process, the Registrar will return the Context Server details to a CAA
// (in order to submit queries) or the Event Mediator details to a CE (in
// order to publish events)."
//
// Host is the server side: it attaches the Range Service, Registrar-facing
// and Context-Server-facing message handling to a transport endpoint owned
// by a Range. Remote CEs are represented inside the Range by proxy
// components whose emitted events arrive over the wire and whose
// configuration inputs are forwarded back out, so remote entities
// participate in configurations exactly like local ones.
//
// Connector is the client side used by remote processes (cmd/sciquery,
// remote sensors): discover → register → submit queries / publish events /
// receive deliveries.
package rangesvc

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/metrics"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// Wire body types for the Fig 5 protocol.

type announceBody struct {
	// Range and Registrar identify the Range; Server and Mediator are the
	// handles returned after registration per Fig 5 (carried up-front too,
	// which saves a round trip without changing the sequence's semantics).
	Range     guid.GUID `json:"range"`
	Registrar guid.GUID `json:"registrar"`
	Server    guid.GUID `json:"server"`
	Name      string    `json:"name"`
}

type registerBody struct {
	Profile profile.Profile `json:"profile"`
	// Application marks CAAs (they receive query results, not inputs).
	Application bool `json:"application"`
}

type registerAckBody struct {
	// Server is the Context Server GUID (for queries), Mediator the event
	// intake GUID (for publication), per the paper's sequence.
	Server   guid.GUID     `json:"server"`
	Mediator guid.GUID     `json:"mediator"`
	Lease    time.Duration `json:"lease"`
	Error    string        `json:"error,omitempty"`
}

type queryBody struct {
	XML []byte `json:"xml"` // the Fig 6 XML form
}

type queryResultBody struct {
	Profiles      []*profile.Profile     `json:"profiles,omitempty"`
	Advertisement *profile.Advertisement `json:"advertisement,omitempty"`
	Provider      guid.GUID              `json:"provider,omitzero"`
	Configuration guid.GUID              `json:"configuration,omitzero"`
	Deferred      bool                   `json:"deferred,omitempty"`
	Error         string                 `json:"error,omitempty"`
}

type serviceCallBody struct {
	Provider guid.GUID      `json:"provider"`
	Op       string         `json:"op"`
	Args     map[string]any `json:"args,omitempty"`
}

type serviceReplyBody struct {
	Result map[string]any `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// Host serves a Range over a transport endpoint. Construct with NewHost.
//
// Outbound event deliveries to remote components travel as event.batch
// wire messages through a per-endpoint flow.Coalescer: up to the Range's
// BatchMaxEvents events bound for one remote endpoint are collected into a
// single message, with a BatchMaxDelay timer flushing partially filled
// batches so a trickle never stalls. N deliveries to one endpoint
// therefore cost ⌈N/BatchMaxEvents⌉ wire messages instead of N; a
// BatchMaxEvents of 0 or 1 ships each event at once as its own batch.
// Either way remote receivers acknowledge event.batch messages with flow
// credit (wire.BatchCredit); a collapsing credit throttles that
// endpoint's coalescer flush rate, surfaced through the Range's
// remote.backpressure.* gauges.
//
// Credit flows the other way too: batches a remote CE publishes are
// acknowledged with the drops *that endpoint's traffic* caused (the bus's
// per-publisher attribution, Range.DispatchDropsFor), never the Range-wide
// total. Acks are coalesced per endpoint — a report carrying fresh drops
// leaves immediately, redundant healthy reports are rate-limited to one
// per ack window with a timer fallback — and ride outbound event.batch
// messages (NativeBatch.Credit) instead of standalone event.batch_ack
// frames when reverse-direction traffic is available to carry them.
type Host struct {
	rng *server.Range
	ep  transport.Endpoint
	clk clock.Clock

	maxBatch int
	maxDelay time.Duration

	mu      sync.Mutex
	remotes map[guid.GUID]*remoteProxy       // guarded by mu; remote CE/CAA → proxy
	out     map[guid.GUID]*flow.Coalescer    // guarded by mu; remote endpoint → outbound coalescer
	acks    map[guid.GUID]*flow.AckCoalescer // guarded by mu; publishing endpoint → coalesced ack owed
	failing guid.Set                         // guarded by mu; endpoints whose last send failed (transition logging)
	closed  bool                             // guarded by mu

	// AcksSent counts standalone event.batch_ack frames shipped;
	// AcksPiggybacked counts credit reports that rode an outbound
	// event.batch instead. Their ratio is the frame saving on
	// bidirectional links.
	AcksSent        metrics.Counter
	AcksPiggybacked metrics.Counter
}

// remoteProxy stands in for a remote component inside the Range.
type remoteProxy struct {
	*entity.Base
	host   *Host
	remote guid.GUID // same GUID: the remote entity is addressable on the net
	app    bool
}

// HandleInput forwards configuration-edge events to the remote CE.
func (p *remoteProxy) HandleInput(e event.Event) {
	p.host.sendEvent(p.remote, e)
}

// HandleInputAll forwards a whole run of configuration-edge events to the
// remote CE: the run is appended to the endpoint's outbound coalescer under
// one lock acquisition instead of one per event. The configuration runtime
// detects this (entity.BatchInput) and wires the input through
// Mediator.SubscribeBatch.
func (p *remoteProxy) HandleInputAll(events []event.Event) {
	p.host.sendEvents(p.remote, events)
}

// Serve forwards advertisement calls — not supported synchronously over
// this host (remote service calls flow through Connector.Call instead).
func (p *remoteProxy) Serve(op string, args map[string]any) (map[string]any, error) {
	return nil, fmt.Errorf("rangesvc: remote service %q must be called via the connector", op)
}

// NewHost attaches the Range's Context Server to the network under the
// Range's server GUID.
func NewHost(rng *server.Range, net transport.Network, clk clock.Clock) (*Host, error) {
	if clk == nil {
		clk = clock.Real()
	}
	h := &Host{
		rng:      rng,
		clk:      clk,
		maxBatch: rng.BatchMaxEvents(),
		maxDelay: rng.BatchMaxDelay(),
		remotes:  make(map[guid.GUID]*remoteProxy),
		out:      make(map[guid.GUID]*flow.Coalescer),
		acks:     make(map[guid.GUID]*flow.AckCoalescer),
		failing:  guid.NewSet(),
	}
	ep, err := net.Attach(rng.ServerID(), h.handle)
	if err != nil {
		return nil, fmt.Errorf("rangesvc: attach host: %w", err)
	}
	h.ep = ep
	// Surface the endpoint's wire-level state — which codec each live
	// connection encodes and the bytes that crossed the wire — through
	// Range.StatsMap and so through dispatch.stats.
	if ws, ok := ep.(transport.WireStatser); ok {
		rng.AddStatsSource(func() map[string]float64 {
			st := ws.WireStats()
			out := make(map[string]float64, len(st.Codecs)+2)
			for codec, n := range st.Codecs {
				out["remote.codec."+codec] = float64(n)
			}
			out["remote.bytes_sent"] = float64(st.BytesSent)
			out["remote.bytes_received"] = float64(st.BytesReceived)
			return out
		})
	}
	return h, nil
}

// Announce sends the Fig 5 RS announcement to a newly appeared component's
// endpoint, informing it about the Range's Registrar.
func (h *Host) Announce(to guid.GUID) error {
	body := announceBody{
		Range:     h.rng.ID(),
		Registrar: h.rng.ServerID(), // the CS fronts the Registrar on the wire
		Server:    h.rng.ServerID(),
		Name:      h.rng.Name(),
	}
	m, err := wire.NewMessage(h.rng.ServerID(), to, wire.KindAnnounce, body)
	if err != nil {
		return err
	}
	return h.send(to, m)
}

// Close flushes pending outbound batches and detaches the host endpoint.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	queues := make([]*flow.Coalescer, 0, len(h.out))
	for _, q := range h.out {
		queues = append(queues, q)
	}
	h.out = make(map[guid.GUID]*flow.Coalescer)
	acks := make([]*flow.AckCoalescer, 0, len(h.acks))
	for _, a := range h.acks {
		acks = append(acks, a)
	}
	h.acks = make(map[guid.GUID]*flow.AckCoalescer)
	h.mu.Unlock()
	for _, a := range acks {
		a.Stop()
	}
	for _, q := range queues {
		q.Flush()
		q.Discard()
	}
	return h.ep.Close()
}

// handle dispatches inbound wire traffic.
func (h *Host) handle(m wire.Message) {
	switch m.Kind {
	case wire.KindRegister:
		h.handleRegister(m)
	case wire.KindDeregister:
		_ = h.rng.RemoveEntity(m.Src)
		reply, err := m.Reply(wire.KindDeregisterAck, map[string]string{"ok": "true"})
		if err == nil {
			_ = h.send(m.Src, reply)
		}
	case wire.KindHeartbeat:
		_ = h.rng.Registrar().Renew(m.Src)
	case wire.KindQuery:
		h.handleQuery(m)
	case wire.KindEventBatch:
		h.ingestNativeBatch(m)
	case wire.KindEventBatchAck:
		h.handleCredit(m)
	case wire.KindServiceCall:
		h.handleServiceCall(m)
	}
}

func (h *Host) handleRegister(m wire.Message) {
	var body registerBody
	ack := registerAckBody{
		Server:   h.rng.ServerID(),
		Mediator: h.rng.ServerID(),
		Lease:    h.rng.Registrar().Lease(),
	}
	if err := m.DecodeBody(&body); err != nil {
		ack.Error = err.Error()
	} else if err := h.register(m.Src, body); err != nil {
		ack.Error = err.Error()
	}
	reply, err := m.Reply(wire.KindRegisterAck, ack)
	if err != nil {
		return
	}
	_ = h.send(m.Src, reply)
}

func (h *Host) register(src guid.GUID, body registerBody) error {
	prof := body.Profile
	prof.Entity = src
	if err := prof.Validate(); err != nil {
		return err
	}
	proxy := &remoteProxy{host: h, remote: src, app: body.Application}
	proxy.Base = entity.NewBaseWithID(src, prof, h.clk)

	h.mu.Lock()
	h.remotes[src] = proxy
	h.mu.Unlock()

	var err error
	if body.Application {
		// Remote CAAs are registered as applications whose ConsumeAll sends
		// whole delivery runs over the wire: the root subscription feeds the
		// proxy a slice per wakeup and the outbound coalescer ingests it
		// under a single lock.
		caa := entity.NewRemoteBatchCAA(src, prof.Name, func(events []event.Event) {
			h.sendEvents(src, events)
		}, h.clk)
		err = h.rng.AddApplication(caa)
	} else {
		err = h.rng.AddEntity(proxy)
	}
	if err != nil {
		return err
	}
	// Remote components renew their own leases via wire heartbeats; the
	// Range's local auto-renewal must not mask their failure.
	h.rng.StopRenewing(src)
	return nil
}

func (h *Host) handleQuery(m wire.Message) {
	var body queryBody
	result := queryResultBody{}
	if err := m.DecodeBody(&body); err != nil {
		result.Error = err.Error()
	} else {
		q, err := query.Decode(body.XML)
		if err != nil {
			result.Error = err.Error()
		} else {
			res, err := h.rng.Submit(q)
			if err != nil {
				result.Error = err.Error()
			} else {
				result.Profiles = res.Profiles
				result.Advertisement = res.Advertisement
				result.Provider = res.Provider
				result.Configuration = res.Configuration
				result.Deferred = res.Deferred
			}
		}
	}
	kind := wire.KindQueryResult
	if result.Error != "" {
		kind = wire.KindQueryError
	}
	reply, err := m.Reply(kind, result)
	if err != nil {
		return
	}
	_ = h.send(m.Src, reply)
}

// ingestNativeBatch ingests a batch of events published by a remote CE. The
// batch is shared — the memory transport may hand one pointer to several
// receivers — so events are copied by value before they are stamped, and
// payload maps are never touched. That filtering copy is the only one: it
// goes to the bus as is.
func (h *Host) ingestNativeBatch(m wire.Message) {
	if m.Batch == nil {
		return
	}
	in := m.Batch.Events
	events := make([]event.Event, 0, len(in))
	for i := range in {
		e := in[i]
		if e.Source != m.Src {
			continue // a remote may only publish as itself
		}
		// Validate per event: PublishAll rejects a batch whole, and one bad
		// event must not discard its 63 valid neighbours.
		if err := e.Validate(); err != nil {
			continue
		}
		// Overwrite any client-supplied Range stamp: Publish/PublishAll
		// preserve non-nil stamps for SCINET cross-range forwarding, so an
		// untrusted wire client could otherwise forge a sibling Range's stamp
		// and dodge Range-filtered subscriptions or the fabric's forwarding
		// tap. A remote CE publishes into this Range, so it gets this
		// Range's stamp.
		e.Range = h.rng.ID()
		events = append(events, e)
	}
	// The whole ingest is attributed to the publishing endpoint, so any
	// drops it causes downstream are counted against it — the figure its
	// acks carry (every event's Source equals m.Src here, but the explicit
	// key documents the contract and survives future relaxations).
	if len(events) > 0 {
		_ = h.rng.Mediator().PublishAllOwnedFrom(m.Src, events)
	}
	// Publishers get a flow-credit ack so remote CEs can see the drops
	// their traffic causes — attributed to this endpoint, never the
	// Range-wide total.
	h.noteIngest(m.Src, len(in))
	// A publisher that also receives deliveries may piggyback its credit.
	if m.Batch.Credit != nil {
		h.applyCredit(m.Src, *m.Batch.Credit)
	}
}

// noteIngest records events ingested from a publishing endpoint with the
// endpoint's ack coalescer (flow.AckCoalescer): the leading report and
// reports whose attributed drop figure moved leave promptly (rate-limited
// to one per ack window even under a drop storm — the figure is
// cumulative, so one frame per window says everything), redundant healthy
// reports ride the window timer, and a pending report is claimed by the
// next outbound batch that can carry it.
func (h *Host) noteIngest(src guid.GUID, events int) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	a := h.acks[src]
	if a == nil {
		a = flow.NewAckCoalescer(flow.AckConfig{
			Clock:  h.clk,
			Window: h.maxDelay,
			Figure: func() uint64 { return h.rng.DispatchDropsFor(src) },
			Send:   func(events int) bool { return h.sendAck(src, events) },
		})
		h.acks[src] = a
	}
	h.mu.Unlock()
	a.Note(events)
}

// ackCredit builds the credit report an ack to one endpoint carries: the
// drops attributed to that endpoint's traffic, and an unknown queue depth
// (dispatch rings are per subscription, not one queue).
func (h *Host) ackCredit(to guid.GUID, events int) wire.BatchCredit {
	return wire.BatchCredit{
		Events:    events,
		Dropped:   h.rng.DispatchDropsFor(to),
		QueueFree: -1,
	}
}

// sendAck ships one standalone event.batch_ack frame, reporting success.
func (h *Host) sendAck(to guid.GUID, events int) bool {
	ack, err := wire.NewEventBatchAck(h.rng.ServerID(), to, h.ackCredit(to, events))
	if err != nil {
		return true // unencodable: dropping the report is all we can do
	}
	if h.send(to, ack) != nil {
		return false
	}
	h.AcksSent.Inc()
	return true
}

// takePiggybackCredit claims the pending credit report owed to an endpoint
// for carriage on an outbound event.batch, suppressing the standalone ack
// frame.
func (h *Host) takePiggybackCredit(to guid.GUID) *wire.BatchCredit {
	h.mu.Lock()
	a := h.acks[to]
	closed := h.closed
	h.mu.Unlock()
	if a == nil || closed {
		return nil
	}
	events, ok := a.Take()
	if !ok {
		return nil
	}
	credit := h.ackCredit(to, events)
	return &credit
}

// handleCredit ingests a standalone event.batch_ack from a remote receiver.
func (h *Host) handleCredit(m wire.Message) {
	credit, ok := m.BatchCreditInfo()
	if !ok {
		return
	}
	h.applyCredit(m.Src, credit)
}

// applyCredit routes a receiver flow-credit report into the reporting
// endpoint's outbound coalescer, which throttles its flush rate while the
// credit stays collapsed. Reports from endpoints we never coalesce to are
// dropped — a credit must not create a queue.
func (h *Host) applyCredit(from guid.GUID, credit wire.BatchCredit) {
	h.mu.Lock()
	q := h.out[from]
	h.mu.Unlock()
	if q != nil {
		q.UpdateCredit(credit.Dropped, credit.QueueFree)
	}
}

func (h *Host) handleServiceCall(m wire.Message) {
	var body serviceCallBody
	reply := serviceReplyBody{}
	if err := m.DecodeBody(&body); err != nil {
		reply.Error = err.Error()
	} else {
		var out map[string]any
		var err error
		if body.Provider == h.rng.ServerID() {
			// Calls addressed to the Context Server itself are
			// infrastructure operations, not entity advertisements.
			out, err = h.serveInfra(body.Op)
		} else {
			out, err = h.rng.CallService(body.Provider, body.Op, body.Args)
		}
		if err != nil {
			reply.Error = err.Error()
		} else {
			reply.Result = out
		}
	}
	r, err := m.Reply(wire.KindServiceReply, reply)
	if err != nil {
		return
	}
	_ = h.send(m.Src, r)
}

// serveInfra answers service calls addressed to the Context Server: today
// "dispatch.stats", the Event Mediator's dispatch health (publish/deliver/
// drop totals, live subscriptions, and how much of the dispatch work the
// subscription index resolved without wildcard scanning). Values are
// float64 so they survive the JSON wire round trip unchanged.
func (h *Host) serveInfra(op string) (map[string]any, error) {
	switch op {
	case "dispatch.stats":
		stats := h.rng.StatsMap()
		out := make(map[string]any, len(stats))
		for k, v := range stats {
			out[k] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rangesvc: unknown infrastructure op %q", op)
	}
}

// sendEvent ships an event to a remote component through the endpoint's
// coalescer.
func (h *Host) sendEvent(to guid.GUID, e event.Event) {
	if q := h.queueFor(to); q != nil {
		q.Add(e)
	}
}

// sendEvents ships a run of events to one remote component: the whole run
// enters the endpoint's coalescer under one lock acquisition.
func (h *Host) sendEvents(to guid.GUID, events []event.Event) {
	if q := h.queueFor(to); q != nil {
		q.AddAll(events)
	}
}

// queueFor returns the destination's coalescer, creating it on first use
// (nil once the host has closed). Every endpoint's coalescer shares the
// Range's flow stats sink, so backpressure across all endpoints reads out
// of one set of remote.backpressure.* gauges.
func (h *Host) queueFor(to guid.GUID) *flow.Coalescer {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	q, ok := h.out[to]
	if !ok {
		q = flow.New(flow.Config{
			Clock:    h.clk,
			MaxBatch: h.maxBatch,
			MaxDelay: h.maxDelay,
			Fair:     h.rng.FairFlush(),
			Stats:    h.rng.FlowStats(),
			Send:     func(batch []event.Event) { h.sendBatch(to, batch) },
		})
		h.out[to] = q
	}
	return q
}

// sendBatch ships one coalescer chunk as one event.batch wire message,
// folding in any pending flow-credit ack owed to the destination —
// on a hot bidirectional link the reverse traffic carries the credit and
// the standalone ack frame is never paid. The coalescer never writes a
// chunk it has handed over (flow.Config.Send), so the message keeps it
// without a copy. Encoding happens at the wire.
func (h *Host) sendBatch(to guid.GUID, events []event.Event) {
	credit := h.takePiggybackCredit(to)
	m, err := wire.NewNativeEventBatch(h.rng.ServerID(), to, events, credit)
	if err != nil {
		return
	}
	if h.send(to, m) == nil {
		h.rng.RemoteBatchesSent.Inc()
		h.rng.RemoteEventsSent.Add(uint64(len(events)))
		if credit != nil {
			h.AcksPiggybacked.Inc()
		}
	} else if credit != nil {
		// The claimed report must survive the failed carrier: re-note it so
		// the standalone path retries.
		h.mu.Lock()
		a := h.acks[to]
		h.mu.Unlock()
		if a != nil {
			a.Note(credit.Events)
		}
	}
}

// send ships one wire message, counting failures in the Range's
// RemoteSendFailures metric and logging once per endpoint health
// transition (working → failing and back) rather than per message.
func (h *Host) send(to guid.GUID, m wire.Message) error {
	err := h.ep.Send(m)
	h.mu.Lock()
	was := h.failing.Has(to)
	if err != nil {
		h.failing.Add(to)
	} else {
		h.failing.Remove(to)
	}
	h.mu.Unlock()
	if err != nil {
		h.rng.RemoteSendFailures.Inc()
		if !was {
			log.Printf("rangesvc: sends to %s failing: %v", to.Short(), err)
		}
	} else if was {
		log.Printf("rangesvc: sends to %s recovered", to.Short())
	}
	return err
}

// Connector is the client side of the Fig 5 sequence for a remote CE or
// CAA. Construct with NewConnector (per-event delivery) or
// NewBatchConnector (whole-backlog slices), then Register.
//
// Pushed events (query results, configuration inputs) land in a bounded
// delivery queue drained by a dedicated goroutine, so a slow handler can
// never stall the transport; when the queue overflows, the oldest events
// are dropped (context data is freshest-wins) and counted
// (SetDeliveryQueueCap sets the bound).
//
// Received event.batch messages are acknowledged with the connector's flow
// credit — the cumulative drop count and remaining queue capacity — which
// the Range Service feeds into that endpoint's outbound coalescer to
// throttle its flush rate while the connector is overloaded. Acks are
// coalesced: a report carrying fresh drops leaves immediately, redundant
// healthy reports at most once per ack window (timer fallback), and a
// pending report rides the next published batch (NativeBatch.Credit)
// instead of paying a standalone event.batch_ack frame.
type Connector struct {
	id   guid.GUID
	name string
	ep   transport.Endpoint
	clk  clock.Clock

	mu          sync.Mutex
	server      guid.GUID     // guarded by mu
	lease       time.Duration // guarded by mu
	announced   chan announceBody
	waiters     map[guid.GUID]chan wire.Message // guarded by mu
	onEvent     func(event.Event)
	onBatch     func([]event.Event)
	dq          []event.Event // guarded by mu; bounded delivery queue (onEvent/onBatch != nil)
	dqCap       int           // guarded by mu
	dqWake      chan struct{}
	deliverDone chan struct{}    // non-nil iff deliverLoop was started; closed when it exits
	dqDropped   uint64           // guarded by mu; cumulative overflow drops, reported in acks
	credit      wire.BatchCredit // guarded by mu
	hasCredit   bool             // guarded by mu
	hbTimer     clock.Timer      // guarded by mu
	closed      bool             // guarded by mu

	// Coalesced ack state, one flow.AckCoalescer per delivering endpoint
	// (acks answer the sender of the batch they cover).
	acks      map[guid.GUID]*flow.AckCoalescer
	acksSent  metrics.Counter
	acksPiggy metrics.Counter
}

// DefaultDeliveryQueueLen is the connector delivery queue capacity when
// none is set.
const DefaultDeliveryQueueLen = 1024

// connAckWindow is the connector's ack-coalescing window: redundant healthy
// credit reports are rate-limited to one per window (reports carrying new
// drops always leave immediately).
const connAckWindow = server.DefaultBatchMaxDelay

// Errors.
var (
	ErrNotRegistered = errors.New("rangesvc: not registered with a range")
	ErrTimeout       = errors.New("rangesvc: request timed out")
)

// RequestTimeout bounds every synchronous round trip.
const RequestTimeout = 5 * time.Second

// NewConnector attaches a component endpoint to the network. onEvent
// receives pushed events (query results for CAAs, configuration inputs for
// CEs); it may be nil.
func NewConnector(id guid.GUID, name string, net transport.Network, onEvent func(event.Event), clk clock.Clock) (*Connector, error) {
	return newConnector(id, name, net, onEvent, nil, clk)
}

// NewBatchConnector attaches a component endpoint whose handler consumes
// the whole delivery backlog as one slice per wakeup — the same batch-fed
// edge the mediator gives local consumers — so per-event overhead (locks,
// encoding, downstream writes) amortises across a burst. The slice is
// reused between invocations and must not be retained.
func NewBatchConnector(id guid.GUID, name string, net transport.Network, onBatch func([]event.Event), clk clock.Clock) (*Connector, error) {
	return newConnector(id, name, net, nil, onBatch, clk)
}

func newConnector(id guid.GUID, name string, net transport.Network, onEvent func(event.Event), onBatch func([]event.Event), clk clock.Clock) (*Connector, error) {
	if clk == nil {
		clk = clock.Real()
	}
	c := &Connector{
		id:        id,
		name:      name,
		clk:       clk,
		announced: make(chan announceBody, 1),
		waiters:   make(map[guid.GUID]chan wire.Message),
		onEvent:   onEvent,
		onBatch:   onBatch,
		dqCap:     DefaultDeliveryQueueLen,
		dqWake:    make(chan struct{}, 1),
		acks:      make(map[guid.GUID]*flow.AckCoalescer),
	}
	ep, err := net.Attach(id, c.handle)
	if err != nil {
		return nil, fmt.Errorf("rangesvc: attach connector: %w", err)
	}
	c.ep = ep
	if onEvent != nil || onBatch != nil {
		c.deliverDone = make(chan struct{})
		go c.deliverLoop()
	}
	return c, nil
}

// SetDeliveryQueueCap bounds the delivery queue (events awaiting the
// handler). Shrinking below the current backlog drops the oldest surplus.
func (c *Connector) SetDeliveryQueueCap(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dqCap = n
	if over := len(c.dq) - n; over > 0 {
		c.dq = append(c.dq[:0], c.dq[over:]...)
		c.dqDropped += uint64(over)
	}
}

// DeliveryQueueCap reports the current queue bound.
func (c *Connector) DeliveryQueueCap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dqCap
}

// DeliveryDrops reports how many pushed events overflowed the delivery
// queue — the figure acked back to the Range Service as flow credit.
func (c *Connector) DeliveryDrops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dqDropped
}

// RemoteCredit returns the last flow-credit report received from the
// Range Service (acks to this connector's published batches, standalone or
// piggybacked on a delivery batch): the drops this connector's own traffic
// caused in the Range. ok is false until a report arrives.
func (c *Connector) RemoteCredit() (wire.BatchCredit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.credit, c.hasCredit
}

// AcksSent reports how many standalone event.batch_ack frames this
// connector has shipped; AcksPiggybacked how many credit reports rode a
// published batch instead.
func (c *Connector) AcksSent() uint64        { return c.acksSent.Value() }
func (c *Connector) AcksPiggybacked() uint64 { return c.acksPiggy.Value() }

// noteDeliveryAck records an owed flow-credit report after ingesting one
// delivery message from the given endpoint, through that endpoint's ack
// coalescer: the leading report and reports whose drop figure moved leave
// promptly (one per window even under a drop storm), redundant healthy
// reports ride the window timer or the next published batch that can carry
// them.
func (c *Connector) noteDeliveryAck(from guid.GUID, events int) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	a := c.acks[from]
	if a == nil {
		a = flow.NewAckCoalescer(flow.AckConfig{
			Clock:  c.clk,
			Window: connAckWindow,
			Figure: func() uint64 { return c.DeliveryDrops() },
			Send:   func(events int) bool { return c.sendAck(from, events) },
		})
		c.acks[from] = a
	}
	c.mu.Unlock()
	a.Note(events)
}

// deliveryCredit builds the credit report an ack carries: the delivery
// queue's cumulative drops and remaining capacity.
func (c *Connector) deliveryCredit(events int) wire.BatchCredit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wire.BatchCredit{
		Events:    events,
		Dropped:   c.dqDropped,
		QueueFree: c.dqCap - len(c.dq),
	}
}

// sendAck ships one standalone event.batch_ack frame, reporting success.
func (c *Connector) sendAck(to guid.GUID, events int) bool {
	ack, err := wire.NewEventBatchAck(c.id, to, c.deliveryCredit(events))
	if err != nil {
		return true // unencodable: dropping the report is all we can do
	}
	if c.ep.Send(ack) != nil {
		return false
	}
	c.acksSent.Inc()
	return true
}

// takePiggybackCredit claims the report pending toward the given endpoint
// for carriage on a published batch — a report is never piggybacked past
// its addressee; per-endpoint coalescers make that structural.
func (c *Connector) takePiggybackCredit(to guid.GUID) *wire.BatchCredit {
	c.mu.Lock()
	a := c.acks[to]
	closed := c.closed
	c.mu.Unlock()
	if a == nil || closed {
		return nil
	}
	events, ok := a.Take()
	if !ok {
		return nil
	}
	credit := c.deliveryCredit(events)
	return &credit
}

// enqueueDeliveries admits pushed events to the bounded delivery queue,
// dropping the oldest (freshest-wins, like the mediator's rings) on
// overflow. The ack path reads the queue state live (deliveryCredit) at
// report time, not here.
func (c *Connector) enqueueDeliveries(events []event.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if over := len(events) - c.dqCap; over > 0 {
		// The burst alone exceeds the queue: only its freshest tail can
		// survive, everything older is dropped unseen.
		c.dqDropped += uint64(over + len(c.dq))
		c.dq = c.dq[:0]
		events = events[over:]
	} else if over := len(c.dq) + len(events) - c.dqCap; over > 0 {
		c.dq = append(c.dq[:0], c.dq[over:]...)
		c.dqDropped += uint64(over)
	}
	c.dq = append(c.dq, events...)
	select {
	case c.dqWake <- struct{}{}:
	default:
	}
}

// deliverLoop drains the delivery queue whole-backlog per wakeup into the
// batch handler when one is set (one slice per drain, the mediator's
// batch-fed edge), or event by event into onEvent.
func (c *Connector) deliverLoop() {
	defer close(c.deliverDone)
	var buf []event.Event
	for range c.dqWake {
		for {
			c.mu.Lock()
			if len(c.dq) == 0 {
				c.mu.Unlock()
				break
			}
			buf = append(buf[:0], c.dq...)
			c.dq = c.dq[:0]
			c.mu.Unlock()
			if c.onBatch != nil {
				c.onBatch(buf)
				continue
			}
			for i := range buf {
				c.onEvent(buf[i])
			}
		}
	}
}

// ID returns the component's GUID.
func (c *Connector) ID() guid.GUID { return c.id }

// ServerID returns the Context Server handle received at registration.
func (c *Connector) ServerID() guid.GUID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server
}

// AwaitAnnounce blocks until a Range Service announcement arrives (the
// entity "starting up" side of Fig 5).
func (c *Connector) AwaitAnnounce(timeout time.Duration) (rangeID, serverID guid.GUID, err error) {
	select {
	case a := <-c.announced:
		return a.Range, a.Server, nil
	case <-c.clk.After(timeout):
		return guid.Nil, guid.Nil, ErrTimeout
	}
}

// Register completes the Fig 5 sequence against the given Context Server:
// it sends the profile, receives the CS/Mediator handles and the lease, and
// starts heartbeating.
func (c *Connector) Register(serverID guid.GUID, prof profile.Profile, application bool) error {
	prof.Entity = c.id
	prof.Name = c.name
	m, err := wire.NewMessage(c.id, serverID, wire.KindRegister, registerBody{
		Profile:     prof,
		Application: application,
	})
	if err != nil {
		return err
	}
	reply, err := c.roundTrip(m)
	if err != nil {
		return err
	}
	var ack registerAckBody
	if err := reply.DecodeBody(&ack); err != nil {
		return err
	}
	if ack.Error != "" {
		return fmt.Errorf("rangesvc: registration rejected: %s", ack.Error)
	}
	c.mu.Lock()
	c.server = ack.Server
	c.lease = ack.Lease
	c.mu.Unlock()
	c.scheduleHeartbeat()
	return nil
}

// Deregister announces clean departure.
func (c *Connector) Deregister() error {
	srv := c.ServerID()
	if srv.IsNil() {
		return ErrNotRegistered
	}
	m, err := wire.NewMessage(c.id, srv, wire.KindDeregister, map[string]string{"bye": "true"})
	if err != nil {
		return err
	}
	_, err = c.roundTrip(m)
	c.mu.Lock()
	c.server = guid.Nil
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
	c.mu.Unlock()
	return err
}

// Submit sends a query (Fig 6 XML on the wire) and returns the result.
func (c *Connector) Submit(q query.Query) (*queryResultBody, error) {
	srv := c.ServerID()
	if srv.IsNil() {
		return nil, ErrNotRegistered
	}
	xmlData, err := q.Encode()
	if err != nil {
		return nil, err
	}
	m, err := wire.NewMessage(c.id, srv, wire.KindQuery, queryBody{XML: xmlData})
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(m)
	if err != nil {
		return nil, err
	}
	var res queryResultBody
	if err := reply.DecodeBody(&res); err != nil {
		return nil, err
	}
	if res.Error != "" {
		return nil, fmt.Errorf("rangesvc: query failed: %s", res.Error)
	}
	return &res, nil
}

// Call invokes an advertisement operation on a provider in the Range.
func (c *Connector) Call(provider guid.GUID, op string, args map[string]any) (map[string]any, error) {
	srv := c.ServerID()
	if srv.IsNil() {
		return nil, ErrNotRegistered
	}
	m, err := wire.NewMessage(c.id, srv, wire.KindServiceCall, serviceCallBody{
		Provider: provider,
		Op:       op,
		Args:     args,
	})
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(m)
	if err != nil {
		return nil, err
	}
	var res serviceReplyBody
	if err := reply.DecodeBody(&res); err != nil {
		return nil, err
	}
	if res.Error != "" {
		return nil, fmt.Errorf("rangesvc: service call failed: %s", res.Error)
	}
	return res.Result, nil
}

// Publish sends an event to the Range's mediator (remote CE emission) as a
// one-event batch.
func (c *Connector) Publish(e event.Event) error {
	return c.PublishAll([]event.Event{e})
}

// PublishAll sends a batch of events to the Range's mediator as one
// event.batch wire message; the Range ingests it through the bus's batched
// dispatch path. A pending delivery-credit report rides along in the batch
// body (suppressing its standalone ack frame) when the batch heads to the
// endpoint the report answers. An empty batch is a no-op.
func (c *Connector) PublishAll(events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	srv := c.ServerID()
	if srv.IsNil() {
		return ErrNotRegistered
	}
	// The caller keeps its slice; the native batch escapes with the message.
	owned := make([]event.Event, len(events))
	copy(owned, events)
	credit := c.takePiggybackCredit(srv)
	m, err := wire.NewNativeEventBatch(c.id, srv, owned, credit)
	if err != nil {
		return err
	}
	err = c.ep.Send(m)
	if credit != nil {
		if err == nil {
			c.acksPiggy.Inc()
		} else {
			// The claimed report must survive the failed carrier.
			c.mu.Lock()
			a := c.acks[srv]
			c.mu.Unlock()
			if a != nil {
				a.Note(credit.Events)
			}
		}
	}
	return err
}

// Close detaches the connector. Events still waiting in the delivery queue
// are discarded deterministically and counted as delivery drops (the
// consumer is gone; feeding a closing handler would race its teardown), the
// drain goroutine is woken so it can observe the closed channel and exit
// rather than parking forever, and DeliveryDrops is stable from here on —
// no post-close enqueue or drain mutates it.
func (c *Connector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
	acks := make([]*flow.AckCoalescer, 0, len(c.acks))
	for _, a := range c.acks {
		acks = append(acks, a)
	}
	c.acks = make(map[guid.GUID]*flow.AckCoalescer)
	c.dqDropped += uint64(len(c.dq))
	c.dq = nil
	close(c.dqWake)
	c.mu.Unlock()
	// Join the delivery goroutine before tearing the endpoint down: a
	// Close must guarantee no handler invocation is in flight (or will
	// start) once it returns. The loop exits promptly — Close already
	// emptied the queue and closed the wakeup channel — so this waits
	// only for an in-flight handler call to finish.
	if c.deliverDone != nil {
		<-c.deliverDone
	}
	for _, a := range acks {
		a.Stop()
	}
	return c.ep.Close()
}

// storeRemoteCredit records the Range Service's latest flow-credit report
// for this connector's published traffic (RemoteCredit).
func (c *Connector) storeRemoteCredit(credit wire.BatchCredit) {
	c.mu.Lock()
	c.credit = credit
	c.hasCredit = true
	c.mu.Unlock()
}

func (c *Connector) scheduleHeartbeat() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.lease <= 0 {
		return
	}
	every := c.lease / 3
	c.hbTimer = c.clk.AfterFunc(every, func() {
		srv := c.ServerID()
		if !srv.IsNil() {
			if m, err := wire.NewMessage(c.id, srv, wire.KindHeartbeat, map[string]string{"hb": "1"}); err == nil {
				_ = c.ep.Send(m)
			}
		}
		c.scheduleHeartbeat()
	})
}

func (c *Connector) roundTrip(m wire.Message) (wire.Message, error) {
	corr := guid.New(guid.KindQuery)
	m.Corr = corr
	ch := make(chan wire.Message, 1)
	c.mu.Lock()
	c.waiters[corr] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, corr)
		c.mu.Unlock()
	}()
	if err := c.ep.Send(m); err != nil {
		return wire.Message{}, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-c.clk.After(RequestTimeout):
		return wire.Message{}, ErrTimeout
	}
}

func (c *Connector) handle(m wire.Message) {
	switch m.Kind {
	case wire.KindAnnounce:
		var a announceBody
		if err := m.DecodeBody(&a); err == nil {
			select {
			case c.announced <- a:
			default:
			}
		}
	case wire.KindEventBatch:
		if m.Batch == nil {
			return
		}
		// A delivery batch may itself piggyback the host's ack to our
		// published batches — read it before the events.
		if credit, ok := m.BatchCreditInfo(); ok {
			c.storeRemoteCredit(credit)
		}
		if c.onEvent == nil && c.onBatch == nil {
			return
		}
		// The queue copies event values on admission and never mutates the
		// slice, so the shared batch is read directly.
		c.enqueueDeliveries(m.Batch.Events)
		// Acknowledge with flow credit so the host's coalescer can match its
		// flush rate to what this connector absorbs — coalesced per the ack
		// window, urgent on fresh drops, piggybacked on the next publish
		// when one beats the timer.
		c.noteDeliveryAck(m.Src, len(m.Batch.Events))
	case wire.KindEventBatchAck:
		if credit, ok := m.BatchCreditInfo(); ok {
			c.storeRemoteCredit(credit)
		}
	default:
		if !m.Corr.IsNil() {
			c.mu.Lock()
			ch, ok := c.waiters[m.Corr]
			c.mu.Unlock()
			if ok {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
}
