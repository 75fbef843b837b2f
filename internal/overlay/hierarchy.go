package overlay

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sci/internal/guid"
	"sci/internal/metrics"
	"sci/internal/transport"
	"sci/internal/wire"
)

// TreeNode is one node of the hierarchical routing baseline that the paper
// contrasts the SCINET against (Section 3): messages between subtrees must
// climb to the lowest common ancestor, so nodes near the root relay a
// disproportionate share of the traffic. Experiment E1 measures exactly
// that concentration.
type TreeNode struct {
	id      guid.GUID
	parent  guid.GUID // nil at the root
	ep      transport.Endpoint
	deliver DeliverFunc

	mu       sync.RWMutex
	children map[guid.GUID]guid.Set // child id → set of ids in that child's subtree (incl. child)
	closed   bool

	relayed metrics.Counter
}

type treeRouteBody struct {
	Target  guid.GUID       `json:"target"`
	Origin  guid.GUID       `json:"origin"`
	AppKind string          `json:"app_kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Hops    int             `json:"hops"`
}

// Tree wires a set of TreeNodes into a fixed hierarchy. Construct with
// BuildTree.
type Tree struct {
	Root  *TreeNode
	Nodes map[guid.GUID]*TreeNode
}

// BuildTree constructs a balanced tree with the given branching factor over
// the supplied ids (ids[0] becomes the root), attaching every node to net.
// Routing state (subtree membership) is precomputed: the baseline gets the
// benefit of perfect knowledge, making E1's comparison conservative.
func BuildTree(net transport.Network, ids []guid.GUID, branching int, deliver func(guid.GUID, Delivery)) (*Tree, error) {
	if len(ids) == 0 {
		return nil, errors.New("overlay: BuildTree needs at least one id")
	}
	if branching < 2 {
		branching = 2
	}
	t := &Tree{Nodes: make(map[guid.GUID]*TreeNode, len(ids))}

	// parentIdx of node i in a complete k-ary tree laid out in level order.
	parentIdx := func(i int) int { return (i - 1) / branching }

	for i, id := range ids {
		node := &TreeNode{
			id:       id,
			children: make(map[guid.GUID]guid.Set),
		}
		if i > 0 {
			node.parent = ids[parentIdx(i)]
		}
		if deliver != nil {
			nodeID := id
			node.deliver = func(d Delivery) { deliver(nodeID, d) }
		}
		ep, err := net.Attach(id, node.handle)
		if err != nil {
			return nil, fmt.Errorf("overlay: tree attach %s: %w", id.Short(), err)
		}
		node.ep = ep
		t.Nodes[id] = node
	}
	t.Root = t.Nodes[ids[0]]

	// Precompute subtree membership bottom-up.
	for i := len(ids) - 1; i >= 1; i-- {
		child := ids[i]
		parent := t.Nodes[ids[parentIdx(i)]]
		// The child's subtree is itself plus all its children's subtrees.
		sub := guid.NewSet(child)
		for _, s := range t.Nodes[child].children {
			for _, m := range s.Members() {
				sub.Add(m)
			}
		}
		parent.children[child] = sub
	}
	return t, nil
}

// Close detaches every node.
func (t *Tree) Close() error {
	var first error
	for _, n := range t.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ID returns the node's identifier.
func (n *TreeNode) ID() guid.GUID { return n.id }

// Relayed returns how many payloads this node forwarded for others.
func (n *TreeNode) Relayed() uint64 { return n.relayed.Value() }

// Route sends payload towards target through the tree.
func (n *TreeNode) Route(target guid.GUID, appKind string, payload []byte) error {
	return n.forward(treeRouteBody{
		Target:  target,
		Origin:  n.id,
		AppKind: appKind,
		Payload: payload,
	})
}

func (n *TreeNode) forward(body treeRouteBody) error {
	if body.Target == n.id {
		if n.deliver != nil {
			n.deliver(Delivery{
				Target:  body.Target,
				Origin:  body.Origin,
				AppKind: body.AppKind,
				Payload: body.Payload,
				Hops:    body.Hops,
			})
		}
		return nil
	}
	next := n.nextHop(body.Target)
	if next.IsNil() {
		return fmt.Errorf("%w: %s not in tree", ErrNoRoute, body.Target.Short())
	}
	body.Hops++
	m, err := wire.NewMessage(n.id, next, wire.KindOverlayRoute, body)
	if err != nil {
		return err
	}
	if err := n.ep.Send(m); err != nil {
		return fmt.Errorf("overlay: tree send: %w", err)
	}
	return nil
}

// nextHop routes down into the child subtree containing target, else up.
func (n *TreeNode) nextHop(target guid.GUID) guid.GUID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for child, subtree := range n.children {
		if subtree.Has(target) {
			return child
		}
	}
	return n.parent // nil at the root for unknown targets
}

func (n *TreeNode) handle(m wire.Message) {
	n.mu.RLock()
	closed := n.closed
	n.mu.RUnlock()
	if closed || m.Kind != wire.KindOverlayRoute {
		return
	}
	var body treeRouteBody
	if err := m.DecodeBody(&body); err != nil {
		return
	}
	if body.Target != n.id {
		n.relayed.Inc()
	}
	_ = n.forward(body)
}

// Close detaches the node.
func (n *TreeNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	return n.ep.Close()
}
