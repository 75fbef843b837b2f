// Package overlay implements the SCINET substrate: "a network overlay of
// partially connected nodes" (paper, Section 3) in which Ranges address one
// another by GUID rather than network address.
//
// The paper argues that "routing through an overlay network avoids any
// bottlenecks created when using hierarchical infrastructures whilst
// achieving comparable performance". To reproduce that claim (experiment
// E1) this package provides both contenders:
//
//   - Node: a structured overlay node in the 2003 Pastry/Tapestry style the
//     paper's citation [9] builds on — a hexadecimal prefix routing table
//     for long-range shortcuts plus a ring-ordered leaf set for guaranteed
//     convergence, greedy strictly-ring-distance-decreasing forwarding,
//     heartbeat failure detection and gossip repair. A peer the heartbeat
//     found dead is tombstoned: gossip does not revive it, only a message
//     from the peer itself does.
//   - Tree: the hierarchical baseline, routing every inter-range message
//     through the lowest common ancestor (and therefore concentrating load
//     near the root).
//
// Both satisfy Router so the benchmark harness can drive them identically.
// Router.Route is key-based routing — the primitive E1 measures, delivered
// at the closest node when the target is unknown. An application that
// already holds its peer's GUID reaches it with Node.Send instead: one hop
// on the direct link, and a failed send is an error plus a forgotten peer,
// never a delivery somewhere else.
package overlay

import (
	"sync"

	"sci/internal/guid"
)

// tableRows × tableCols is the classic prefix routing table geometry: row r
// holds nodes sharing exactly r leading digits with self, indexed by their
// (r+1)-th digit.
const (
	tableRows = guid.Digits
	tableCols = 16
)

// leafK is the number of ring neighbours kept on each side (predecessors
// and successors). Accurate immediate neighbours are what make greedy ring
// routing provably deliver to live targets; keeping several per side gives
// slack under churn.
const leafK = 4

// state holds a node's routing knowledge. It is guarded by its own mutex so
// the message handler, the heartbeat loop and application Route calls can
// share it.
type state struct {
	self guid.GUID

	mu    sync.RWMutex
	table [tableRows][tableCols]guid.GUID
	// preds are the leafK closest predecessors (smallest CWDist(x, self)),
	// sorted closest-first; succs are the leafK closest successors
	// (smallest CWDist(self, x)), sorted closest-first.
	preds []guid.GUID
	succs []guid.GUID
}

func newState(self guid.GUID) *state {
	return &state{self: self}
}

// consider ingests a candidate node id into the routing table and the leaf
// set. It reports whether the id was new knowledge anywhere.
func (s *state) consider(id guid.GUID) bool {
	if id == s.self || id.IsNil() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false

	// Routing table: row = shared prefix length, column = next digit.
	row := guid.CommonPrefixLen(s.self, id)
	if row < tableRows {
		col := id.Digit(row)
		if s.table[row][col].IsNil() {
			s.table[row][col] = id
			added = true
		}
	}

	if insertLeaf(&s.succs, id, func(a, b guid.GUID) bool {
		return guid.Compare(guid.CWDist(s.self, a), guid.CWDist(s.self, b)) < 0
	}) {
		added = true
	}
	if insertLeaf(&s.preds, id, func(a, b guid.GUID) bool {
		return guid.Compare(guid.CWDist(a, s.self), guid.CWDist(b, s.self)) < 0
	}) {
		added = true
	}
	return added
}

// insertLeaf inserts id into the sorted bounded list unless present,
// keeping the leafK closest under less. Reports whether id was inserted.
func insertLeaf(list *[]guid.GUID, id guid.GUID, less func(a, b guid.GUID) bool) bool {
	l := *list
	pos := len(l)
	for i, n := range l {
		if n == id {
			return false
		}
		if pos == len(l) && less(id, n) {
			pos = i
		}
	}
	if pos == len(l) {
		if len(l) < leafK {
			*list = append(l, id)
			return true
		}
		return false
	}
	l = append(l, guid.Nil)
	copy(l[pos+1:], l[pos:])
	l[pos] = id
	if len(l) > leafK {
		l = l[:leafK]
	}
	*list = l
	return true
}

// forget removes a failed node from all routing structures.
func (s *state) forget(id guid.GUID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := guid.CommonPrefixLen(s.self, id)
	if row < tableRows {
		col := id.Digit(row)
		if s.table[row][col] == id {
			s.table[row][col] = guid.Nil
		}
	}
	for _, list := range []*[]guid.GUID{&s.preds, &s.succs} {
		l := *list
		for i, n := range l {
			if n == id {
				*list = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
}

// nextHop picks the known node to forward a message for target to: the
// known node strictly ring-closest to the target. It returns guid.Nil when
// no known node is strictly closer than self — i.e. the message should be
// delivered locally. Because every hop is strictly ring-closer, routing
// always terminates; because leaf sets hold accurate immediate neighbours,
// a live target is always reached (the node preceding it on the ring knows
// it and the target itself is distance zero).
func (s *state) nextHop(target guid.GUID) guid.GUID {
	return s.nextHopAvoiding(target, guid.Nil)
}

// nextHopAvoiding is nextHop with one candidate excluded. The join protocol
// uses it to ask "who was ring-closest to this id before the id existed?":
// the joiner itself must not count, even though handling its request has
// already ingested it into the tables.
func (s *state) nextHopAvoiding(target, avoid guid.GUID) guid.GUID {
	s.mu.RLock()
	defer s.mu.RUnlock()

	best := s.self
	improve := func(c guid.GUID) {
		if !c.IsNil() && c != avoid && guid.RingCloserTo(target, c, best) {
			best = c
		}
	}
	for _, n := range s.succs {
		improve(n)
	}
	for _, n := range s.preds {
		improve(n)
	}
	for r := range s.table {
		for c := range s.table[r] {
			improve(s.table[r][c])
		}
	}
	if best == s.self {
		return guid.Nil
	}
	return best
}

// known returns every distinct node id in the routing structures, sorted.
func (s *state) known() []guid.GUID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := guid.NewSet()
	for _, n := range s.succs {
		set.Add(n)
	}
	for _, n := range s.preds {
		set.Add(n)
	}
	for r := range s.table {
		for c := range s.table[r] {
			if id := s.table[r][c]; !id.IsNil() {
				set.Add(id)
			}
		}
	}
	return set.Members()
}

// leafList returns the leaf set (both sides, deduplicated) — the nodes the
// heartbeat loop probes, since their accuracy is what routing correctness
// rests on.
func (s *state) leafList() []guid.GUID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := guid.NewSet()
	for _, n := range s.succs {
		set.Add(n)
	}
	for _, n := range s.preds {
		set.Add(n)
	}
	return set.Members()
}
