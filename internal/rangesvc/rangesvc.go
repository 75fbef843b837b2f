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
	"sci/internal/registry"
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

// The fixed bodies of the deregister, its ack and the heartbeat: the
// messages carry no data, but their bodies are part of the wire format.
var (
	deregisterBody    = map[string]string{"bye": "true"}
	deregisterAckBody = map[string]string{"ok": "true"}
	heartbeatBody     = map[string]string{"hb": "1"}
)

// Host serves a Range over a transport endpoint. Construct with NewHost.
//
// Everything the host keeps about one remote component lives on its
// endpoint, created at registration or on first traffic and forgotten when
// the component departs (deregistration or a lapsed lease).
//
// Outbound event deliveries to remote components travel as event.batch
// wire messages through the endpoint's flow.Coalescer: up to the Range's
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
// per-publisher attribution, Range.Drops().For), never the Range-wide
// total. Acks are coalesced per endpoint and ride outbound event.batch
// messages (NativeBatch.Credit) instead of standalone event.batch_ack
// frames when reverse-direction traffic is available to carry them; the
// Connector runs the same ack path (see endpoint).
type Host struct {
	rng     *server.Range
	ep      transport.Endpoint
	clk     clock.Clock
	unwatch func() // cancels the departure watch

	maxBatch int
	maxDelay time.Duration

	mu     sync.Mutex
	out    map[guid.GUID]*endpoint // guarded by mu; remote component → its endpoint
	closed bool                    // guarded by mu

	// AcksSent counts standalone event.batch_ack frames shipped;
	// AcksPiggybacked counts credit reports that rode an outbound
	// event.batch instead. Their ratio is the frame saving on
	// bidirectional links.
	AcksSent        metrics.Counter
	AcksPiggybacked metrics.Counter
}

// remoteProxy stands in for a remote component inside the Range; it has
// the remote's GUID, so the remote entity is addressable on the net.
type remoteProxy struct {
	*entity.Base
	out *endpoint
}

// HandleInput forwards configuration-edge events to the remote CE.
func (p *remoteProxy) HandleInput(e event.Event) {
	p.out.Add(e)
}

// HandleInputAll forwards a whole run of configuration-edge events to the
// remote CE: the run is appended to the endpoint's outbound coalescer under
// one lock acquisition instead of one per event. The configuration runtime
// detects this (entity.BatchInput) and wires the input through
// Mediator.SubscribeBatch.
func (p *remoteProxy) HandleInputAll(events []event.Event) {
	p.out.AddAll(events)
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
		out:      make(map[guid.GUID]*endpoint),
	}
	ep, err := net.Attach(rng.ServerID(), h.handle)
	if err != nil {
		return nil, fmt.Errorf("rangesvc: attach host: %w", err)
	}
	h.ep = ep
	// A departed component's endpoint goes with it. Watchers run in the
	// order they were added, so the Range's own has already cancelled the
	// component's subscriptions.
	h.unwatch = rng.Registrar().Watch(registry.FuncWatcher{
		Departure: func(reg registry.Registration, _ registry.Reason) { h.forget(reg.Entity) },
	})
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
	out := h.out
	h.out = nil
	h.mu.Unlock()
	h.unwatch()
	for _, e := range out {
		e.close(true)
	}
	return h.ep.Close()
}

// endpointFor returns a remote's endpoint, creating it on first use (nil
// once the host has closed). Every endpoint's coalescer shares the Range's
// flow stats sink, so backpressure across all endpoints reads out of one
// set of remote.backpressure.* gauges.
func (h *Host) endpointFor(to guid.GUID) *endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	if e := h.out[to]; e != nil {
		return e
	}
	e := &endpoint{
		self: h.rng.ServerID(),
		peer: to,
		send: func(m wire.Message) error { return h.send(to, m) },
		// An ack reports the drops attributed to the remote's traffic and
		// an unknown queue depth (dispatch rings are per subscription, not
		// one queue).
		credit: func(events int) wire.BatchCredit {
			return wire.BatchCredit{Events: events, Dropped: h.rng.Drops().For(to), QueueFree: -1}
		},
		sent:        &h.AcksSent,
		piggybacked: &h.AcksPiggybacked,
	}
	e.acks = e.newAcks(h.clk, h.maxDelay)
	// The coalescer never writes a chunk it has handed over
	// (flow.Config.Send), so the message keeps it without a copy.
	// Encoding happens at the wire.
	e.Coalescer = flow.New(flow.Config{
		Clock:    h.clk,
		MaxBatch: h.maxBatch,
		MaxDelay: h.maxDelay,
		Fair:     h.rng.FairFlush(),
		Stats:    h.rng.FlowStats(),
		Send: func(batch []event.Event) {
			if e.sendBatch(batch) == nil {
				h.rng.RemoteBatchesSent.Inc()
				h.rng.RemoteEventsSent.Add(uint64(len(batch)))
			}
		},
	})
	h.out[to] = e
	return e
}

// lookup returns a remote's endpoint, or nil when the host keeps none.
func (h *Host) lookup(id guid.GUID) *endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out[id]
}

// forget closes and removes a departed component's endpoint (a local
// component has none). Deliveries still pending for it are dropped.
func (h *Host) forget(id guid.GUID) {
	h.mu.Lock()
	e := h.out[id]
	delete(h.out, id)
	h.mu.Unlock()
	if e != nil {
		e.close(false)
	}
}

// handle dispatches inbound wire traffic.
func (h *Host) handle(m wire.Message) {
	switch m.Kind {
	case wire.KindRegister:
		h.handleRegister(m)
	case wire.KindDeregister:
		_ = h.rng.RemoveEntity(m.Src)
		h.reply(m, wire.KindDeregisterAck, deregisterAckBody)
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
	h.reply(m, wire.KindRegisterAck, ack)
}

// reply answers a remote's request.
func (h *Host) reply(m wire.Message, kind wire.Kind, body any) {
	if r, err := m.Reply(kind, body); err == nil {
		_ = h.send(m.Src, r)
	}
}

func (h *Host) register(src guid.GUID, body registerBody) error {
	prof := body.Profile
	prof.Entity = src
	if err := prof.Validate(); err != nil {
		return err
	}
	// The component's deliveries go straight to its endpoint, so one that
	// is still in flight when the component departs finds the endpoint
	// closed rather than creating a new one.
	out := h.endpointFor(src)
	if out == nil {
		return transport.ErrClosed
	}
	var err error
	if body.Application {
		// Remote CAAs are registered as applications whose ConsumeAll sends
		// whole delivery runs over the wire: the root subscription feeds the
		// proxy a slice per wakeup and the outbound coalescer ingests it
		// under a single lock.
		err = h.rng.AddApplication(entity.NewRemoteBatchCAA(src, prof.Name, out.AddAll, h.clk))
	} else {
		err = h.rng.AddEntity(&remoteProxy{Base: entity.NewBaseWithID(src, prof, h.clk), out: out})
	}
	if err != nil {
		// Past Validate only a closed Range refuses a component; its
		// endpoint goes when the host closes.
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
	h.reply(m, kind, result)
}

// ingestNativeBatch ingests a batch of events published by a remote CE. The
// batch is shared — the memory transport may hand one pointer to several
// receivers — so events are copied by value before they are stamped, and
// payload maps are never touched. That filtering copy is the only one: it
// goes to the bus as is. Only a remote the host keeps an endpoint for — one
// that registered and has not departed — is ingested and acked: a batch
// from any other source is dropped, so a peer minting GUIDs cannot make the
// host grow.
func (h *Host) ingestNativeBatch(m wire.Message) {
	ep := h.lookup(m.Src)
	if m.Batch == nil || ep == nil {
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
	// Range-wide total. A publisher that also receives deliveries may
	// piggyback its credit.
	ep.acks.Note(len(in))
	if credit := m.Batch.Credit; credit != nil {
		ep.UpdateCredit(credit.Dropped, credit.QueueFree)
	}
}

// handleCredit feeds a remote receiver's standalone event.batch_ack into
// its endpoint's coalescer, which throttles its flush rate while the credit
// stays collapsed. A report from a remote the host keeps no endpoint for is
// dropped: a credit must not create one.
func (h *Host) handleCredit(m wire.Message) {
	credit, ok := m.BatchCreditInfo()
	if e := h.lookup(m.Src); ok && e != nil {
		e.UpdateCredit(credit.Dropped, credit.QueueFree)
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
	h.reply(m, wire.KindServiceReply, reply)
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

// send ships one wire message, counting failures in the Range's
// RemoteSendFailures metric. Sends to a remote with an endpoint log once
// per health transition (working → failing and back) rather than per
// message; a remote without one (an announcement's target, a departed
// component's deregister ack) logs each failure.
func (h *Host) send(to guid.GUID, m wire.Message) error {
	err := h.ep.Send(m)
	was := false
	if e := h.lookup(to); e != nil {
		was = e.failing.Swap(err != nil)
	}
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
// throttle its flush rate while the connector is overloaded. The acks run
// the Host's ack path (see endpoint): coalesced per ack window, and
// carried by the next published batch instead of a standalone
// event.batch_ack frame when one beats the window.
type Connector struct {
	id   guid.GUID
	name string
	ep   transport.Endpoint
	clk  clock.Clock

	mu        sync.Mutex
	server    guid.GUID     // guarded by mu
	lease     time.Duration // guarded by mu
	announced chan announceBody
	waiters   map[guid.GUID]chan wire.Message // guarded by mu
	onBatch   func([]event.Event)
	// dq is the bounded delivery queue (onBatch != nil). It is a plain
	// slice rather than an event-bus ring, though the drop-oldest policy
	// is the same: the rings live inside eventbus.Subscription, and there
	// is no standalone ring type to reuse.
	dq          []event.Event // guarded by mu
	dqCap       int           // guarded by mu
	dqWake      chan struct{}
	deliverDone chan struct{}    // non-nil iff deliverLoop was started; closed when it exits
	dqDropped   uint64           // guarded by mu; cumulative overflow drops, reported in acks
	credit      wire.BatchCredit // guarded by mu
	hasCredit   bool             // guarded by mu
	hbTimer     clock.Timer      // guarded by mu
	closed      bool             // guarded by mu
	// peers holds an endpoint per Range Service this connector exchanges
	// batches with: an ack answers the sender of the batch it covers.
	peers map[guid.GUID]*endpoint // guarded by mu

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
// CEs) one at a time; it may be nil.
func NewConnector(id guid.GUID, name string, net transport.Network, onEvent func(event.Event), clk clock.Clock) (*Connector, error) {
	var onBatch func([]event.Event)
	if onEvent != nil {
		onBatch = func(events []event.Event) {
			for i := range events {
				onEvent(events[i])
			}
		}
	}
	return NewBatchConnector(id, name, net, onBatch, clk)
}

// NewBatchConnector attaches a component endpoint whose handler consumes
// the whole delivery backlog as one slice per wakeup — the same batch-fed
// edge the mediator gives local consumers — so per-event overhead (locks,
// encoding, downstream writes) amortises across a burst. The slice is
// reused between invocations and must not be retained. onBatch may be nil.
func NewBatchConnector(id guid.GUID, name string, net transport.Network, onBatch func([]event.Event), clk clock.Clock) (*Connector, error) {
	if clk == nil {
		clk = clock.Real()
	}
	c := &Connector{
		id:        id,
		name:      name,
		clk:       clk,
		announced: make(chan announceBody, 1),
		waiters:   make(map[guid.GUID]chan wire.Message),
		onBatch:   onBatch,
		dqCap:     DefaultDeliveryQueueLen,
		dqWake:    make(chan struct{}, 1),
		peers:     make(map[guid.GUID]*endpoint),
	}
	ep, err := net.Attach(id, c.handle)
	if err != nil {
		return nil, fmt.Errorf("rangesvc: attach connector: %w", err)
	}
	c.ep = ep
	if onBatch != nil {
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

// endpointFor returns a Range Service's endpoint, creating it on first use
// (nil once the connector has closed).
func (c *Connector) endpointFor(peer guid.GUID) *endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	e := c.peers[peer]
	if e == nil {
		e = &endpoint{
			self:        c.id,
			peer:        peer,
			send:        c.ep.Send,
			credit:      c.deliveryCredit,
			sent:        &c.acksSent,
			piggybacked: &c.acksPiggy,
		}
		e.acks = e.newAcks(c.clk, connAckWindow)
		c.peers[peer] = e
	}
	return e
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
// batch handler, one slice per drain (the mediator's batch-fed edge).
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
			c.onBatch(buf)
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
	var ack registerAckBody
	if err := c.request(serverID, wire.KindRegister, registerBody{
		Profile:     prof,
		Application: application,
	}, &ack); err != nil {
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
	err := c.request(srv, wire.KindDeregister, deregisterBody, nil)
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
	var res queryResultBody
	if err := c.request(srv, wire.KindQuery, queryBody{XML: xmlData}, &res); err != nil {
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
	var res serviceReplyBody
	if err := c.request(srv, wire.KindServiceCall, serviceCallBody{
		Provider: provider,
		Op:       op,
		Args:     args,
	}, &res); err != nil {
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
	e := c.endpointFor(srv)
	if e == nil {
		return transport.ErrClosed
	}
	// The caller keeps its slice; the native batch escapes with the message.
	owned := make([]event.Event, len(events))
	copy(owned, events)
	return e.sendBatch(owned)
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
	peers := c.peers
	c.peers = nil
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
	for _, e := range peers {
		e.close(false)
	}
	return c.ep.Close()
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
			if m, err := wire.NewMessage(c.id, srv, wire.KindHeartbeat, heartbeatBody); err == nil {
				_ = c.ep.Send(m)
			}
		}
		c.scheduleHeartbeat()
	})
}

// request sends one message to a Range Service and waits for the reply,
// decoding its body into reply when reply is not nil.
func (c *Connector) request(to guid.GUID, kind wire.Kind, body, reply any) error {
	m, err := wire.NewMessage(c.id, to, kind, body)
	if err != nil {
		return err
	}
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
		return err
	}
	select {
	case r := <-ch:
		if reply == nil {
			return nil
		}
		return r.DecodeBody(reply)
	case <-c.clk.After(RequestTimeout):
		return ErrTimeout
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
	case wire.KindEventBatch, wire.KindEventBatchAck:
		// The host's ack to our published batches comes standalone or
		// piggybacked on a delivery batch — read it before the events.
		if credit, ok := m.BatchCreditInfo(); ok {
			c.mu.Lock()
			c.credit = credit
			c.hasCredit = true
			c.mu.Unlock()
		}
		if m.Batch == nil || c.onBatch == nil {
			return
		}
		// The queue copies event values on admission and never mutates the
		// slice, so the shared batch is read directly.
		c.enqueueDeliveries(m.Batch.Events)
		// Acknowledge with flow credit so the host's coalescer can match its
		// flush rate to what this connector absorbs — coalesced per the ack
		// window, urgent on fresh drops, piggybacked on the next publish
		// when one beats the timer.
		if e := c.endpointFor(m.Src); e != nil {
			e.acks.Note(len(m.Batch.Events))
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
