package overlay

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
	"sci/internal/transport"
	"sci/internal/wire"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// deliverySink collects deliveries across nodes.
type deliverySink struct {
	mu   sync.Mutex
	recv []Delivery
}

func (s *deliverySink) add(d Delivery) {
	s.mu.Lock()
	s.recv = append(s.recv, d)
	s.mu.Unlock()
}

func (s *deliverySink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recv)
}

func (s *deliverySink) all() []Delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Delivery, len(s.recv))
	copy(out, s.recv)
	return out
}

// buildOverlay creates n nodes joined into one overlay over a fresh memory
// network, with deterministic join order and per-node delivery sinks.
func buildOverlay(t testing.TB, n int, rng *rand.Rand) ([]*Node, map[guid.GUID]*deliverySink, *transport.Memory) {
	t.Helper()
	net := NewTestMemory()
	nodes := make([]*Node, 0, n)
	sinks := make(map[guid.GUID]*deliverySink, n)
	for i := 0; i < n; i++ {
		sink := &deliverySink{}
		node, err := NewNode(Config{
			Network: net,
			Deliver: sink.add,
		})
		if err != nil {
			t.Fatal(err)
		}
		sinks[node.ID()] = sink
		if i > 0 {
			boot := nodes[rng.Intn(len(nodes))].ID()
			if err := node.Join(boot); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		nodes = append(nodes, node)
	}
	return nodes, sinks, net
}

// NewTestMemory returns a zero-latency in-process network.
func NewTestMemory() *transport.Memory {
	return transport.NewMemory(transport.MemoryConfig{})
}

func closeAll(t testing.TB, nodes []*Node, net *transport.Memory) {
	t.Helper()
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	}
	if err := net.Close(); err != nil {
		t.Error(err)
	}
}

func TestSingleNodeDeliversToSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes, sinks, net := buildOverlay(t, 1, rng)
	defer closeAll(t, nodes, net)
	n := nodes[0]
	if err := n.Route(n.ID(), "test", []byte(`"hello"`)); err != nil {
		t.Fatal(err)
	}
	sink := sinks[n.ID()]
	waitFor(t, func() bool { return sink.count() == 1 })
	d := sink.all()[0]
	if d.Hops != 0 || d.Origin != n.ID() || d.AppKind != "test" {
		t.Fatalf("delivery = %+v", d)
	}
}

func TestPairwiseRoutingSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes, sinks, net := buildOverlay(t, 8, rng)
	defer closeAll(t, nodes, net)
	for _, src := range nodes {
		for _, dst := range nodes {
			if err := src.Route(dst.ID(), "probe", nil); err != nil {
				t.Fatalf("route %s→%s: %v", src.ID().Short(), dst.ID().Short(), err)
			}
		}
	}
	// Every node must receive exactly len(nodes) deliveries (one per source).
	for _, dst := range nodes {
		sink := sinks[dst.ID()]
		waitFor(t, func() bool { return sink.count() >= len(nodes) })
		for _, d := range sink.all() {
			if d.Target != dst.ID() {
				t.Fatalf("misdelivery: target %s arrived at %s", d.Target.Short(), dst.ID().Short())
			}
		}
	}
}

func TestRoutingAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(3))
	const n = 64
	nodes, sinks, net := buildOverlay(t, n, rng)
	defer closeAll(t, nodes, net)

	const probes = 300
	expected := make(map[guid.GUID]int)
	for i := 0; i < probes; i++ {
		src := nodes[rng.Intn(n)]
		dst := nodes[rng.Intn(n)]
		expected[dst.ID()]++
		if err := src.Route(dst.ID(), "probe", nil); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range expected {
		sink := sinks[id]
		want := want
		waitFor(t, func() bool { return sink.count() >= want })
	}
	// Hop counts must be bounded well below the TTL; with 64 nodes, greedy
	// prefix routing should resolve in a handful of hops.
	var maxHops int
	for _, sink := range sinks {
		for _, d := range sink.all() {
			if d.Hops > maxHops {
				maxHops = d.Hops
			}
		}
	}
	if maxHops > 10 {
		t.Fatalf("max hops = %d, want small (O(log n))", maxHops)
	}
}

func TestKeyBasedRoutingDeliversSomewhereOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nodes, sinks, net := buildOverlay(t, 16, rng)
	defer closeAll(t, nodes, net)

	// Route to a random key that is not a node id: key-based routing must
	// deliver it at exactly one node (a local ring-distance minimum).
	key := guid.New(guid.KindQuery)
	if err := nodes[len(nodes)-1].Route(key, "kbr", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		total := 0
		for _, sink := range sinks {
			total += sink.count()
		}
		return total == 1
	})
	time.Sleep(20 * time.Millisecond) // would reveal duplicate deliveries
	for _, sink := range sinks {
		for _, d := range sink.all() {
			if d.Target != key {
				t.Fatalf("delivered wrong target: %v", d)
			}
		}
	}
}

func TestJoinTimeoutWhenBootstrapGone(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	node, err := NewNode(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = node.Join(guid.New(guid.KindServer)) // no such node attached
	if err == nil {
		t.Fatal("join to missing bootstrap succeeded")
	}
}

func TestJoinFromSelfRejected(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	node, err := NewNode(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Join(node.ID()); err == nil {
		t.Fatal("self-bootstrap accepted")
	}
}

// silentNet attaches endpoints to a memory network whose sends to a muted
// endpoint are lost without an error, as to a peer that died without
// closing its connections. (A send into transport.Memory's Partition fails
// instead, and a node forgets the peer at once.)
type silentNet struct {
	*transport.Memory
	mu    sync.Mutex
	muted guid.Set
}

func (n *silentNet) Attach(id guid.GUID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Memory.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return silentEndpoint{Endpoint: ep, net: n}, nil
}

func (n *silentNet) mute(id guid.GUID) {
	n.mu.Lock()
	n.muted.Add(id)
	n.mu.Unlock()
}

type silentEndpoint struct {
	transport.Endpoint
	net *silentNet
}

func (e silentEndpoint) Send(m wire.Message) error {
	e.net.mu.Lock()
	muted := e.net.muted.Has(m.Dst)
	e.net.mu.Unlock()
	if muted {
		return nil
	}
	return e.Endpoint.Send(m)
}

// TestNodeFailureHeartbeatEviction: a peer that dies silently is evicted
// when its pings go unanswered past FailAfter.
func TestNodeFailureHeartbeatEviction(t *testing.T) {
	net := &silentNet{Memory: transport.NewMemory(transport.MemoryConfig{}), muted: guid.NewSet()}
	defer net.Close()
	checkHeartbeatEviction(t, net, net.mute)
}

// TestNodeFailureEvictionPartition: a peer whose sends fail at once (a
// dead peer over TCP refuses connections) is forgotten at the first ping,
// and the survivors' gossip does not hand it back to one another.
func TestNodeFailureEvictionPartition(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	checkHeartbeatEviction(t, net, net.Partition)
}

// checkHeartbeatEviction joins three heartbeating nodes a, b and c, kills
// b with kill, and checks that a and c both drop b and still route to
// each other.
func checkHeartbeatEviction(t *testing.T, net transport.Network, kill func(guid.GUID)) {
	t.Helper()
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	mk := func() *Node {
		n, err := NewNode(Config{
			Network:        net,
			Clock:          clk,
			HeartbeatEvery: time.Second,
			FailAfter:      3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk()
	b := mk()
	c := mk()
	defer a.Close()
	defer c.Close()
	if err := b.Join(a.ID()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(b.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return guid.NewSet(a.Known()...).Has(b.ID())
	})

	// Kill b, then advance past FailAfter. The heartbeat loop must evict b
	// from a's and c's tables. Each round waits until the survivors have
	// answered each other's pings, so a slow pong never reads as a failure.
	answered := func(n *Node) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		for id := range n.pinged {
			if id != b.ID() {
				return false
			}
		}
		return true
	}
	kill(b.ID())
	for i := 0; i < 8; i++ {
		clk.Advance(time.Second)
		waitFor(t, func() bool { return answered(a) && answered(c) })
	}
	waitFor(t, func() bool {
		return !guid.NewSet(a.Known()...).Has(b.ID()) &&
			!guid.NewSet(c.Known()...).Has(b.ID())
	})
	_ = b.Close()

	// Routing between the survivors must still work.
	before := a.Delivered()
	if err := c.Route(a.ID(), "after-failure", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Delivered() == before+1 })
}

// rawPeer is a bare endpoint on a memory network that speaks the overlay's
// ping protocol by hand: it answers pings with empty pongs and signals
// each pong it receives.
type rawPeer struct {
	id    guid.GUID
	ep    transport.Endpoint
	pongs chan struct{}
}

func newRawPeer(t *testing.T, net *transport.Memory) *rawPeer {
	t.Helper()
	p := &rawPeer{id: guid.New(guid.KindServer), pongs: make(chan struct{}, 1)}
	ep, err := net.Attach(p.id, func(m wire.Message) {
		switch m.Kind {
		case wire.KindOverlayPing:
			if reply, err := m.Reply(wire.KindOverlayPong, gossipBody{}); err == nil {
				_ = p.ep.Send(reply)
			}
		case wire.KindOverlayPong:
			p.pongs <- struct{}{}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ep = ep
	return p
}

// ping sends to a a ping from p that gossips nodes, and waits for a's pong.
func (p *rawPeer) ping(t *testing.T, a *Node, nodes ...guid.GUID) {
	t.Helper()
	m, err := wire.NewMessage(p.id, a.ID(), wire.KindOverlayPing, gossipBody{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ep.Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.pongs:
	case <-time.After(5 * time.Second):
		t.Fatal("no pong")
	}
}

// TestTombstoneLiftedBySelf: a forgotten peer stays forgotten while its
// tombstone stands. A third node's gossip does not bring it back, but a
// ping from the peer itself does, and the one departure is reported to
// Forgot once. Gossip brings back a peer whose tombstone has expired.
func TestTombstoneLiftedBySelf(t *testing.T) {
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	var mu sync.Mutex
	forgot := map[guid.GUID]int{}
	a, err := NewNode(Config{
		Network:        net,
		Clock:          clk,
		HeartbeatEvery: time.Second,
		FailAfter:      3 * time.Second,
		Forgot: func(id guid.GUID) {
			mu.Lock()
			forgot[id]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	forgotten := func(id guid.GUID) int {
		mu.Lock()
		defer mu.Unlock()
		return forgot[id]
	}
	knows := func(id guid.GUID) bool { return guid.NewSet(a.Known()...).Has(id) }
	// tick advances a's heartbeat one period and waits for the pongs of
	// the peers that answer.
	tick := func() {
		clk.Advance(time.Second)
		waitFor(t, func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			return len(a.pinged) == 0
		})
	}

	b, c, d := newRawPeer(t, net), newRawPeer(t, net), newRawPeer(t, net)
	for _, p := range []*rawPeer{b, c, d} {
		p.ping(t, a)
	}
	if !knows(b.id) || !knows(c.id) || !knows(d.id) {
		t.Fatal("a did not learn the peers that pinged it")
	}

	// b and d die: a's next heartbeat fails to reach them.
	net.Partition(b.id)
	net.Partition(d.id)
	tick()
	if knows(b.id) || knows(d.id) || forgotten(b.id) != 1 || forgotten(d.id) != 1 {
		t.Fatalf("after the failed pings: knows b %v, d %v; Forgot b %d, d %d times; want false, false, 1, 1",
			knows(b.id), knows(d.id), forgotten(b.id), forgotten(d.id))
	}

	// c gossips both: hearsay does not undo a departure, so a's next
	// heartbeat does not ping them and forget them again.
	c.ping(t, a, b.id, d.id)
	if knows(b.id) || knows(d.id) {
		t.Fatal("a third node's gossip brought a tombstoned peer back")
	}
	tick()
	if forgotten(b.id) != 1 || forgotten(d.id) != 1 {
		t.Fatalf("Forgot reported b %d and d %d times, want once each", forgotten(b.id), forgotten(d.id))
	}

	// b comes back with the same GUID and pings for itself.
	net.Unpartition(b.id)
	b.ping(t, a)
	if !knows(b.id) {
		t.Fatal("a peer pinging for itself was not re-added")
	}
	if knows(d.id) {
		t.Fatal("lifting b's tombstone brought d back")
	}

	// d's tombstone expires after 3 × FailAfter; then gossip may teach it.
	for i := 0; i < 9; i++ {
		tick()
	}
	c.ping(t, a, d.id)
	if !knows(d.id) {
		t.Fatal("gossip did not re-add a peer whose tombstone expired")
	}
	if n := forgotten(b.id); n != 1 {
		t.Fatalf("Forgot reported b %d times, want once", n)
	}
}

func TestCloseIsIdempotentAndStopsRouting(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	n, err := NewNode(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendOneHopSharesBatch: Send reaches a known peer on the direct link
// — no forwards — and hands its Delivery the very batch pointer it was given.
func TestSendOneHopSharesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nodes, sinks, net := buildOverlay(t, 8, rng)
	defer closeAll(t, nodes, net)
	src, dst := nodes[0], nodes[len(nodes)-1]
	batch := &wire.NativeBatch{}
	if err := src.Send(dst.ID(), "direct", []byte(`"x"`), batch); err != nil {
		t.Fatal(err)
	}
	sink := sinks[dst.ID()]
	waitFor(t, func() bool { return sink.count() == 1 })
	d := sink.all()[0]
	if d.Hops != 0 || d.Origin != src.ID() || d.Target != dst.ID() || d.AppKind != "direct" {
		t.Fatalf("delivery = %+v", d)
	}
	if d.Batch != batch {
		t.Fatal("Delivery.Batch is not the batch that was sent")
	}
	for _, n := range nodes {
		if n.Relayed() != 0 {
			t.Fatalf("node %s relayed a direct send", n.ID().Short())
		}
	}
}

// TestSendToUnattachedPeerFails: a refused send is an error and one Forgot
// call, never a delivery on the sender (the key-based Route's fallback).
func TestSendToUnattachedPeerFails(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	var forgot []guid.GUID // Forgot runs synchronously inside Send
	own := &deliverySink{}
	n, err := NewNode(Config{
		Network: net,
		Deliver: own.add,
		Forgot:  func(id guid.GUID) { forgot = append(forgot, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ghost := guid.New(guid.KindServer)
	if err := n.Send(ghost, "lost", nil, &wire.NativeBatch{}); err == nil {
		t.Fatal("send to an unattached GUID succeeded")
	}
	if len(forgot) != 1 || forgot[0] != ghost {
		t.Fatalf("Forgot calls = %v, want exactly [%s]", forgot, ghost.Short())
	}
	if own.count() != 0 || n.Delivered() != 0 {
		t.Fatalf("the failed send was delivered on the sender (%d deliveries)", own.count())
	}
}

func TestSendOnClosedNode(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	a, err := NewNode(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.ID(), "late", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on a closed node = %v, want ErrClosed", err)
	}
}

func TestRelayedCountsOnlyForwarded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes, sinks, net := buildOverlay(t, 24, rng)
	defer closeAll(t, nodes, net)
	const probes = 200
	for i := 0; i < probes; i++ {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if err := src.Route(dst.ID(), "p", nil); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, sink := range sinks {
		total += sink.count()
	}
	waitFor(t, func() bool {
		total = 0
		for _, sink := range sinks {
			total += sink.count()
		}
		return total == probes
	})
	// Every message with h ≥ 1 hops was forwarded by h-1 intermediate nodes
	// (the final receiver delivers rather than relays), so total relays =
	// total hops − number of messages that took at least one hop.
	var hops, forwarded uint64
	for _, sink := range sinks {
		for _, d := range sink.all() {
			hops += uint64(d.Hops)
			if d.Hops >= 1 {
				forwarded++
			}
		}
	}
	var relays uint64
	for _, n := range nodes {
		relays += n.Relayed()
	}
	if relays != hops-forwarded {
		t.Fatalf("relays %d != hops %d − forwarded msgs %d", relays, hops, forwarded)
	}
}

// --- state (routing table) unit tests ---

func TestStateConsiderAndNextHopProgress(t *testing.T) {
	self := guid.New(guid.KindServer)
	s := newState(self)
	if s.nextHop(guid.New(guid.KindServer)) != guid.Nil {
		t.Fatal("empty state should have no hop")
	}
	var ids []guid.GUID
	for i := 0; i < 50; i++ {
		id := guid.New(guid.KindServer)
		ids = append(ids, id)
		s.consider(id)
	}
	// consider(self) must be a no-op.
	if s.consider(self) {
		t.Fatal("considered self")
	}
	if s.consider(guid.Nil) {
		t.Fatal("considered nil")
	}
	for _, target := range ids {
		hop := s.nextHop(target)
		if hop.IsNil() {
			t.Fatal("no hop for known target")
		}
		if !guid.RingCloserTo(target, hop, self) {
			t.Fatal("next hop not strictly ring-closer to target")
		}
	}
}

func TestStateForget(t *testing.T) {
	self := guid.New(guid.KindServer)
	s := newState(self)
	id := guid.New(guid.KindServer)
	s.consider(id)
	if !guid.NewSet(s.known()...).Has(id) {
		t.Fatal("consider did not record")
	}
	s.forget(id)
	if guid.NewSet(s.known()...).Has(id) {
		t.Fatal("forget did not remove")
	}
}

func TestStateLeafSetBoundedAndAccurate(t *testing.T) {
	self := guid.New(guid.KindServer)
	s := newState(self)
	var all []guid.GUID
	for i := 0; i < 200; i++ {
		id := guid.New(guid.KindServer)
		all = append(all, id)
		s.consider(id)
	}
	if n := len(s.leafList()); n > 2*leafK {
		t.Fatalf("leaf set grew to %d > %d", n, 2*leafK)
	}
	// The leaf set must contain the true closest successor and predecessor
	// among everything considered.
	bestSucc, bestPred := all[0], all[0]
	for _, id := range all[1:] {
		if guid.Compare(guid.CWDist(self, id), guid.CWDist(self, bestSucc)) < 0 {
			bestSucc = id
		}
		if guid.Compare(guid.CWDist(id, self), guid.CWDist(bestPred, self)) < 0 {
			bestPred = id
		}
	}
	leaves := guid.NewSet(s.leafList()...)
	if !leaves.Has(bestSucc) {
		t.Fatal("leaf set missing true closest successor")
	}
	if !leaves.Has(bestPred) {
		t.Fatal("leaf set missing true closest predecessor")
	}
}

// Property: nextHop always strictly decreases ring distance, so any route
// terminates within TTL.
func TestPropNextHopStrictlyCloser(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var raw guid.GUID
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		s := newState(raw)
		for i := 0; i < 30; i++ {
			var id guid.GUID
			for j := range id {
				id[j] = byte(rng.Intn(256))
			}
			s.consider(id)
		}
		var target guid.GUID
		for j := range target {
			target[j] = byte(rng.Intn(256))
		}
		hop := s.nextHop(target)
		if hop.IsNil() {
			return true // local delivery is always safe
		}
		return guid.RingCloserTo(target, hop, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- hierarchical baseline tests ---

func TestTreeRouting(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	ids := make([]guid.GUID, 15)
	for i := range ids {
		ids[i] = guid.New(guid.KindServer)
	}
	var mu sync.Mutex
	got := make(map[guid.GUID][]Delivery)
	tree, err := BuildTree(net, ids, 2, func(at guid.GUID, d Delivery) {
		mu.Lock()
		got[at] = append(got[at], d)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	// Every pair must be routable.
	for _, src := range ids {
		for _, dst := range ids {
			if err := tree.Nodes[src].Route(dst, "p", nil); err != nil {
				t.Fatalf("tree route: %v", err)
			}
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, ds := range got {
			total += len(ds)
		}
		return total == len(ids)*len(ids)
	})
	mu.Lock()
	defer mu.Unlock()
	for at, ds := range got {
		for _, d := range ds {
			if d.Target != at {
				t.Fatalf("tree misdelivery at %s: %+v", at.Short(), d)
			}
		}
	}
}

func TestTreeRootConcentration(t *testing.T) {
	// The defining property of the hierarchical baseline: leaf-to-leaf
	// traffic between different root subtrees always crosses the root.
	net := NewTestMemory()
	defer net.Close()
	ids := make([]guid.GUID, 31) // complete binary tree, 5 levels
	for i := range ids {
		ids[i] = guid.New(guid.KindServer)
	}
	// Route between the leftmost and rightmost leaves repeatedly.
	left, right := ids[15], ids[30]
	var delivered atomic.Int64
	tree, err := BuildTree(net, ids, 2, func(at guid.GUID, _ Delivery) {
		if at == right {
			delivered.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := tree.Nodes[left].Route(right, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return delivered.Load() == n })
	if got := tree.Root.Relayed(); got != n {
		t.Fatalf("root relayed %d, want %d (all cross-subtree traffic)", got, n)
	}
}

func TestTreeUnknownTarget(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	ids := []guid.GUID{guid.New(guid.KindServer)}
	tree, err := BuildTree(net, ids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.Root.Route(guid.New(guid.KindServer), "x", nil); err == nil {
		t.Fatal("routing to unknown target in tree succeeded")
	}
}

func TestBuildTreeValidation(t *testing.T) {
	net := NewTestMemory()
	defer net.Close()
	if _, err := BuildTree(net, nil, 2, nil); err == nil {
		t.Fatal("empty tree accepted")
	}
}
