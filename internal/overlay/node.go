package overlay

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
	"sci/internal/metrics"
	"sci/internal/transport"
	"sci/internal/wire"
)

// Delivery is an application payload arriving at its destination: routed
// there by Route, or sent straight to this node by Send.
type Delivery struct {
	// Target is the GUID the message was addressed or routed to.
	Target guid.GUID
	// Origin is the node that injected the message.
	Origin guid.GUID
	// AppKind discriminates application payloads (query, event, ...).
	AppKind string
	// Payload is the opaque application body.
	Payload json.RawMessage
	// Batch carries the event batch, header included, when the payload was
	// sent with Send. Consumers must treat it as shared and read-only: the
	// same pointer may fan out to several local deliveries.
	Batch *wire.NativeBatch
	// Hops is the number of overlay forwards taken (0 for Send).
	Hops int
}

// DeliverFunc consumes routed payloads at their destination.
type DeliverFunc func(Delivery)

// Config parameterises a Node.
type Config struct {
	// ID is the node's GUID; a fresh KindServer GUID is generated when nil.
	ID guid.GUID
	// Network attaches the node; required.
	Network transport.Network
	// Clock drives heartbeats; defaults to the real clock.
	Clock clock.Clock
	// HeartbeatEvery is the liveness probe period; 0 disables probing
	// (simulation runs that don't exercise failure keep this off).
	HeartbeatEvery time.Duration
	// FailAfter declares a neighbour dead when no pong arrives within this
	// window; defaults to 3×HeartbeatEvery.
	FailAfter time.Duration
	// Deliver receives routed payloads addressed to (or closest to) this
	// node. May be nil for pure relay nodes.
	Deliver DeliverFunc
	// Forgot is invoked whenever the node drops a peer from its routing
	// structures — a heartbeat went unanswered past FailAfter, or a send to
	// the peer failed. Upper layers (the SCINET fabric) use it to tear down
	// per-peer state such as remote-query proxies. A node that probes
	// liveness reports a departure once: forgetting the peer again while
	// it is tombstoned is not reported. Called synchronously with no node
	// locks held; may be nil.
	Forgot func(guid.GUID)
	// MaxTTL bounds forwarding; defaults to guid.Digits+8.
	MaxTTL int
}

// Node is a structured-overlay SCINET node.
type Node struct {
	cfg    Config
	id     guid.GUID
	st     *state
	ep     transport.Endpoint
	clk    clock.Clock
	maxTTL int

	mu           sync.Mutex
	waiters      map[guid.GUID]chan wire.Message // correlation → reply slot
	announceWait map[guid.GUID]chan struct{}     // correlation → announce ack slot
	pinged       map[guid.GUID]time.Time         // outstanding pings
	// tombs maps each recently forgotten peer to when it was forgotten:
	// gossip does not bring it back, only a message from the peer itself
	// does. Nil when the node does not probe liveness.
	tombs  map[guid.GUID]time.Time
	closed bool

	hb clock.Timer

	relayed   metrics.Counter
	delivered metrics.Counter
}

// Body types for overlay control messages.
type joinBody struct {
	Joiner guid.GUID   `json:"joiner"`
	Nodes  []guid.GUID `json:"nodes"` // knowledge accumulated along the path (bounded)
	// Leaves is filled only on the reply: the complete leaf set of the
	// closest existing node. It is carried separately from Nodes so that
	// path accumulation can never crowd it out — the joiner's own leaf-set
	// accuracy (and hence routing correctness) depends on receiving it
	// whole.
	Leaves []guid.GUID `json:"leaves,omitempty"`
}

// routeBody is the envelope of a key-routed (Route) payload.
type routeBody struct {
	Target  guid.GUID       `json:"target"`
	Origin  guid.GUID       `json:"origin"`
	AppKind string          `json:"app_kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Hops    int             `json:"hops"`
}

func (b routeBody) delivery() Delivery {
	return Delivery{Target: b.Target, Origin: b.Origin, AppKind: b.AppKind, Payload: b.Payload, Hops: b.Hops}
}

type gossipBody struct {
	Nodes []guid.GUID `json:"nodes"`
}

// Errors.
var (
	ErrClosed      = errors.New("overlay: node closed")
	ErrJoinTimeout = errors.New("overlay: join timed out")
	ErrNoRoute     = errors.New("overlay: no route to target")
)

// joinTimeout bounds how long Join waits for the network's reply.
const joinTimeout = 5 * time.Second

// maxCarriedNodes bounds the knowledge piggybacked on join/gossip bodies.
const maxCarriedNodes = 64

// maxTombstones bounds the table of forgotten peers; when it is full the
// oldest tombstone goes first.
const maxTombstones = 1024

// NewNode attaches a node to the network. The node is a one-node overlay
// until Join is called (the first node of a SCINET simply never joins).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Network == nil {
		return nil, errors.New("overlay: Config.Network is required")
	}
	if cfg.ID.IsNil() {
		cfg.ID = guid.New(guid.KindServer)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 3 * cfg.HeartbeatEvery
	}
	if cfg.MaxTTL == 0 {
		cfg.MaxTTL = guid.Digits + 8
	}
	n := &Node{
		cfg:          cfg,
		id:           cfg.ID,
		st:           newState(cfg.ID),
		clk:          cfg.Clock,
		maxTTL:       cfg.MaxTTL,
		waiters:      make(map[guid.GUID]chan wire.Message),
		announceWait: make(map[guid.GUID]chan struct{}),
		pinged:       make(map[guid.GUID]time.Time),
	}
	if cfg.FailAfter > 0 {
		n.tombs = make(map[guid.GUID]time.Time)
	}
	ep, err := cfg.Network.Attach(n.id, n.handle)
	if err != nil {
		return nil, fmt.Errorf("overlay: attach: %w", err)
	}
	n.ep = ep
	if cfg.HeartbeatEvery > 0 {
		n.scheduleHeartbeat()
	}
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() guid.GUID { return n.id }

// Relayed returns how many messages this node has forwarded on behalf
// of others: the per-node load measure of experiment E1.
func (n *Node) Relayed() uint64 { return n.relayed.Value() }

// Delivered returns how many payloads terminated here.
func (n *Node) Delivered() uint64 { return n.delivered.Value() }

// Known returns the sorted ids of all nodes in the routing structures.
func (n *Node) Known() []guid.GUID { return n.st.known() }

// Join bootstraps the node into the overlay reachable via the bootstrap
// node. It routes a join request toward this node's own id; every node on
// the path contributes routing knowledge, and the numerically closest node
// replies with the accumulated set. The joiner then announces itself to all
// learned nodes.
func (n *Node) Join(bootstrap guid.GUID) error {
	if bootstrap == n.id {
		return errors.New("overlay: cannot bootstrap from self")
	}
	corr := guid.New(guid.KindQuery)
	replyCh := make(chan wire.Message, 1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.waiters[corr] = replyCh
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.waiters, corr)
		n.mu.Unlock()
	}()

	body := joinBody{Joiner: n.id, Nodes: []guid.GUID{bootstrap}}
	m, err := wire.NewMessage(n.id, bootstrap, wire.KindOverlayJoin, body)
	if err != nil {
		return err
	}
	m.Corr = corr
	m.TTL = n.maxTTL
	if err := n.ep.Send(m); err != nil {
		return fmt.Errorf("overlay: join send: %w", err)
	}

	select {
	case reply := <-replyCh:
		var jb joinBody
		if err := reply.DecodeBody(&jb); err != nil {
			return err
		}
		n.learn(jb.Nodes)
		n.learn(jb.Leaves)
		n.st.consider(reply.Src)
		n.announce()
		return nil
	case <-n.clk.After(joinTimeout):
		return ErrJoinTimeout
	}
}

// announce tells every known node about this node's existence, then waits
// for their acknowledgements (pongs). Waiting matters: a node whose join
// completes has been integrated into its ring neighbours' leaf sets, so a
// subsequent join routed anywhere in the overlay will find it. Without the
// wait, back-to-back joins of ring-adjacent nodes could miss each other
// permanently (until gossip heals them).
func (n *Node) announce() {
	nodes := []guid.GUID{n.id}
	peers := n.st.known()
	waitCh := make(chan struct{}, len(peers))
	var corrs []guid.GUID
	for _, peer := range peers {
		m, err := wire.NewMessage(n.id, peer, wire.KindOverlayPing, gossipBody{Nodes: nodes})
		if err != nil {
			continue
		}
		corr := guid.New(guid.KindQuery)
		m.Corr = corr
		n.mu.Lock()
		n.announceWait[corr] = waitCh
		n.mu.Unlock()
		corrs = append(corrs, corr)
		if err := n.ep.Send(m); err != nil {
			n.mu.Lock()
			delete(n.announceWait, corr)
			n.mu.Unlock()
			corrs = corrs[:len(corrs)-1]
		}
	}
	deadline := n.clk.After(joinTimeout)
	for range corrs {
		select {
		case <-waitCh:
		case <-deadline:
			// Unacknowledged peers will learn of us through gossip.
			goto cleanup
		}
	}
cleanup:
	n.mu.Lock()
	for _, corr := range corrs {
		delete(n.announceWait, corr)
	}
	n.mu.Unlock()
}

// forget drops a peer from the routing structures, tombstones it, and
// notifies the Forgot hook (peer-departure propagation to the application
// layer) unless the peer was already tombstoned.
func (n *Node) forget(id guid.GUID) {
	n.mu.Lock()
	n.st.forget(id)
	departed := !n.buriedLocked(id)
	if departed && n.tombs != nil {
		if len(n.tombs) >= maxTombstones {
			n.dropOldestTombLocked()
		}
		n.tombs[id] = n.clk.Now()
	}
	n.mu.Unlock()
	if departed && n.cfg.Forgot != nil {
		n.cfg.Forgot(id)
	}
}

// buriedLocked reports whether id holds a live tombstone, dropping an
// expired one. A tombstone lasts 3 × FailAfter: long enough for every
// survivor's heartbeat to have found the peer dead, so none can gossip it
// back to another. Callers hold n.mu.
func (n *Node) buriedLocked(id guid.GUID) bool {
	at, ok := n.tombs[id]
	if ok && n.clk.Now().Sub(at) >= 3*n.cfg.FailAfter {
		delete(n.tombs, id)
		return false
	}
	return ok
}

// dropOldestTombLocked makes room in a full tombstone table. Callers hold
// n.mu.
func (n *Node) dropOldestTombLocked() {
	var oldest guid.GUID
	var at time.Time
	for id, t := range n.tombs {
		if oldest.IsNil() || t.Before(at) {
			oldest, at = id, t
		}
	}
	delete(n.tombs, oldest)
}

// learn considers node ids that another node gossiped, skipping the
// tombstoned: hearsay does not undo a departure. The check and the insert
// share n.mu with forget, so a concurrent forget cannot be undone either.
func (n *Node) learn(ids []guid.GUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range ids {
		if !n.buriedLocked(id) {
			n.st.consider(id)
		}
	}
}

// Route is the key-based routing primitive experiment E1
// measures. The payload travels greedily toward target; it is delivered at
// target itself, or at the closest reachable node when the target is
// unknown. An application that already knows its peer uses Send instead.
func (n *Node) Route(target guid.GUID, appKind string, payload []byte) error {
	return n.forward(routeBody{Target: target, Origin: n.id, AppKind: appKind, Payload: payload})
}

// Send delivers an application payload straight to peer in one hop: no
// next-hop lookup, no retry through another node, never a delivery on this
// node. No envelope wraps it: appKind is the message's kind (it must not be
// one of the overlay's own), payload (JSON, or nil) its body and batch its
// batch, so the peer's Delivery reads them as sent. When the transport
// refuses, peer is forgotten (firing Forgot) and the error returned. The
// batch is shared from this call on — neither the caller nor any consumer
// may mutate it.
func (n *Node) Send(peer guid.GUID, appKind string, payload []byte, batch *wire.NativeBatch) error {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	m := wire.Message{Src: n.id, Dst: peer, Kind: wire.Kind(appKind), Body: payload, Batch: batch}
	if err := n.ep.Send(m); err != nil {
		n.forget(peer)
		return err
	}
	return nil
}

// forward advances a key-routed body one step from this node.
func (n *Node) forward(body routeBody) error {
	if body.Target == n.id {
		n.deliverLocal(body.delivery())
		return nil
	}
	hop := n.st.nextHop(body.Target)
	if hop.IsNil() {
		// No strictly closer node known: deliver here (closest node).
		n.deliverLocal(body.delivery())
		return nil
	}
	if body.Hops >= n.maxTTL {
		return fmt.Errorf("%w: TTL exhausted for %s", ErrNoRoute, body.Target.Short())
	}
	body.Hops++
	m, err := wire.NewMessage(n.id, hop, wire.KindOverlayRoute, body)
	if err != nil {
		return err
	}
	m.TTL = n.maxTTL - body.Hops
	if err := n.ep.Send(m); err != nil {
		// The hop is unreachable: drop it from our tables and retry once
		// with the next best candidate (self-healing routing).
		n.forget(hop)
		if retry := n.st.nextHop(body.Target); !retry.IsNil() {
			m.Dst = retry
			if err2 := n.ep.Send(m); err2 == nil {
				return nil
			}
			n.forget(retry)
		}
		n.deliverLocal(body.delivery())
		return nil
	}
	return nil
}

func (n *Node) deliverLocal(d Delivery) {
	n.delivered.Inc()
	if n.cfg.Deliver != nil {
		n.cfg.Deliver(d)
	}
}

// handle is the transport inbound dispatcher.
func (n *Node) handle(m wire.Message) {
	n.mu.Lock()
	closed := n.closed
	// Every message is evidence its sender is alive and routable: a
	// forgotten sender's tombstone goes.
	delete(n.tombs, m.Src)
	n.mu.Unlock()
	if closed {
		return
	}
	n.st.consider(m.Src)

	switch m.Kind {
	case wire.KindOverlayJoin:
		n.handleJoin(m)
	case wire.KindOverlayJoinReply:
		n.mu.Lock()
		ch, ok := n.waiters[m.Corr]
		n.mu.Unlock()
		if ok {
			select {
			case ch <- m:
			default:
			}
		}
	case wire.KindOverlayRoute:
		var body routeBody
		if err := m.DecodeBody(&body); err != nil {
			return
		}
		if body.Target != n.id {
			n.relayed.Inc()
		}
		_ = n.forward(body)
	case wire.KindOverlayPing:
		var gb gossipBody
		if err := m.DecodeBody(&gb); err == nil {
			n.learn(gb.Nodes)
		}
		// Pong carries a sample of our knowledge back (anti-entropy).
		reply, err := m.Reply(wire.KindOverlayPong, gossipBody{Nodes: n.sampleKnown()})
		if err == nil {
			_ = n.ep.Send(reply)
		}
	case wire.KindOverlayPong:
		n.mu.Lock()
		delete(n.pinged, m.Src)
		ack, waiting := n.announceWait[m.Corr]
		if waiting {
			delete(n.announceWait, m.Corr)
		}
		n.mu.Unlock()
		if waiting {
			select {
			case ack <- struct{}{}:
			default:
			}
		}
		var gb gossipBody
		if err := m.DecodeBody(&gb); err == nil {
			n.learn(gb.Nodes)
		}
	default:
		// Any kind the overlay does not own is an application payload Send
		// put on the direct link.
		n.deliverLocal(Delivery{Target: n.id, Origin: m.Src, AppKind: string(m.Kind), Payload: m.Body, Batch: m.Batch})
	}
}

// handleJoin advances a join request toward the joiner's id, accumulating
// knowledge, and replies when this node is the closest.
func (n *Node) handleJoin(m wire.Message) {
	var jb joinBody
	if err := m.DecodeBody(&jb); err != nil {
		return
	}
	// Contribute this node's knowledge (bounded).
	jb.Nodes = appendBounded(jb.Nodes, n.id)
	for _, id := range n.sampleKnown() {
		jb.Nodes = appendBounded(jb.Nodes, id)
	}

	// Pick the next hop excluding the joiner itself: handling this request
	// (and the top-of-handle sender ingestion) has already put the joiner
	// into our tables, but the question the join protocol asks is "who was
	// ring-closest to this id before it existed?" — that node's leaf set is
	// what seeds the joiner correctly, so routing must continue until it.
	hop := n.st.nextHopAvoiding(jb.Joiner, jb.Joiner)
	n.learn([]guid.GUID{jb.Joiner})
	if hop.IsNil() || m.TTL <= 0 {
		// This node is the closest existing node. Its leaf set contains the
		// joiner's true ring neighbours; hand it over complete so the
		// joiner's own leaf set starts accurate.
		jb.Leaves = append(n.st.leafList(), n.id)
		reply, err := wire.NewMessage(n.id, jb.Joiner, wire.KindOverlayJoinReply, jb)
		if err != nil {
			return
		}
		reply.Corr = m.Corr
		_ = n.ep.Send(reply)
		return
	}
	fwd, err := wire.NewMessage(n.id, hop, wire.KindOverlayJoin, jb)
	if err != nil {
		return
	}
	fwd.Corr = m.Corr
	fwd.TTL = m.TTL - 1
	if err := n.ep.Send(fwd); err != nil {
		n.forget(hop)
		// Fall back to replying ourselves.
		reply, rerr := wire.NewMessage(n.id, jb.Joiner, wire.KindOverlayJoinReply, jb)
		if rerr != nil {
			return
		}
		reply.Corr = m.Corr
		_ = n.ep.Send(reply)
	}
}

// sampleKnown returns a bounded sample of known nodes for gossip bodies.
func (n *Node) sampleKnown() []guid.GUID {
	known := n.st.known()
	if len(known) > maxCarriedNodes {
		known = known[:maxCarriedNodes]
	}
	return known
}

func appendBounded(list []guid.GUID, id guid.GUID) []guid.GUID {
	if len(list) >= maxCarriedNodes {
		return list
	}
	for _, x := range list {
		if x == id {
			return list
		}
	}
	return append(list, id)
}

// scheduleHeartbeat arms the next liveness probe round.
func (n *Node) scheduleHeartbeat() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.hb = n.clk.AfterFunc(n.cfg.HeartbeatEvery, n.heartbeat)
}

// heartbeat pings the neighbour set and expires unanswered pings.
func (n *Node) heartbeat() {
	now := n.clk.Now()

	// Expire overdue pings: declare those nodes failed.
	n.mu.Lock()
	var dead []guid.GUID
	for id, sent := range n.pinged {
		if now.Sub(sent) >= n.cfg.FailAfter {
			dead = append(dead, id)
			delete(n.pinged, id)
		}
	}
	n.mu.Unlock()
	for _, id := range dead {
		n.forget(id)
	}

	// Ping current neighbours.
	for _, peer := range n.st.leafList() {
		n.mu.Lock()
		if _, outstanding := n.pinged[peer]; !outstanding {
			n.pinged[peer] = now
		}
		n.mu.Unlock()
		m, err := wire.NewMessage(n.id, peer, wire.KindOverlayPing, gossipBody{Nodes: n.sampleKnown()})
		if err != nil {
			continue
		}
		if err := n.ep.Send(m); err != nil {
			n.forget(peer)
			n.mu.Lock()
			delete(n.pinged, peer)
			n.mu.Unlock()
		}
	}
	n.scheduleHeartbeat()
}

// Close detaches the node.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	if n.hb != nil {
		n.hb.Stop()
	}
	n.mu.Unlock()
	return n.ep.Close()
}
