package scinet

// Grid-scale interest routing: the hierarchical digest layer.
//
// Flat interest gossip re-announces every fabric's full filter set to every
// peer — O(fleet²) messages per interest change and O(fleet) interest state
// per fabric, the wide-area scaling wall grid middleware hit at hundreds of
// sites. The hierarchy replaces that with summarized digests along a
// configured super-peer tree (overlay.PlanTree supplies the shape):
//
//   - a leaf announces its interests only to its super-peer, as a
//     wire.Digest (coarsened ctxtype prefixes + a Bloom filter over full
//     filter types) rather than as filters;
//   - a super-peer merges its children's digests with its own interests
//     into one subtree digest, announced up to its parent and level-wise to
//     its peer super-peers; it also sends each child a downward digest
//     summarizing the rest of the fleet (everything reachable *not* through
//     that child), which is what the child's tap demand and upward
//     forwarding gate on;
//   - event batches route along the links whose digest admits them
//     (false-positive tolerant: a digest may over-claim, never under-claim;
//     leaves count non-matching arrivals as spillover), with the existing
//     Via hop set and batch-id window providing exactly-once delivery, and
//     each hop reusing its link's relay backlog and credit acks (link.go)
//     unchanged — the flat flow semantics hold per link;
//   - digest updates are whole-state summaries, rate-limited per link by a
//     flow.UpdateCoalescer (leading edge immediate, churn coalesced per
//     window) and suppressed entirely when the summary is unchanged, with
//     a per-announcer generation so reordered updates are discarded.
//
// An unknown digest (a link whose summary has not arrived yet) admits
// everything: staleness degrades to extra traffic, never to silent loss.

import (
	"encoding/json"
	"slices"
	"sort"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/overlay"
	"sci/internal/wire"
)

// appDigest carries a wire.Digest interest summary along a hierarchy link
// (child → parent, parent → child, or super-peer → super-peer).
const appDigest = "scinet.digest"

// defaultDigestWindow spaces digest re-announcements per link when the
// HierarchyConfig does not say otherwise: wide enough that mobility-grade
// interest churn coalesces, short enough that a fresh interest reaches the
// whole fleet at interactive latency (leading edges always ship at once).
const defaultDigestWindow = 100 * time.Millisecond

// HierarchyConfig attaches a fabric to a super-peer interest hierarchy.
// The zero value means flat (existing behavior): every field is opt-in, so
// small fleets run exactly the PR 3 flood protocol. Plans typically come
// from overlay.PlanTree.
type HierarchyConfig struct {
	// Parent is the super-peer this fabric announces its subtree digest
	// to (nil at a root).
	Parent guid.GUID
	// SuperPeer marks this fabric as an aggregation point: it accepts
	// children's digests and forwards batches into matching subtrees.
	SuperPeer bool
	// Peers are fellow super-peers exchanged with level-wise (for a forest
	// of roots: the other roots). Digests and batches cross the top of the
	// hierarchy through them.
	Peers []guid.GUID
	// Level is this fabric's distance from its root (informational,
	// surfaced through the per-level stats gauges).
	Level int
	// MinFleet keeps the fabric flat until it knows at least this many
	// fabrics (itself included): auto-flat for small fleets. Once reached
	// the hierarchy latches on. Zero activates immediately.
	MinFleet int
	// DigestWindow rate-limits digest updates per link (default
	// defaultDigestWindow).
	DigestWindow time.Duration
}

// digestMsg is one hierarchy digest announcement, sent on the direct link
// to the neighbor it is for; the envelope names the sender. Exactly one of
// Child/Down/Peer states the sender's relation to the receiver, so the
// receiver files the digest in the right table; Remove withdraws the
// sender's digest (departure).
type digestMsg struct {
	Child  bool `json:"child,omitempty"`
	Down   bool `json:"down,omitempty"`
	Peer   bool `json:"peer,omitempty"`
	Remove bool `json:"remove,omitempty"`
	// Digest is the wire.EncodeDigest binary form (absent with Remove).
	Digest []byte `json:"digest,omitempty"`
}

// hierLink is one hierarchy neighbor in the routing snapshot. A nil digest
// means the link's summary is unknown and the link admits every batch
// (conservative: never a false negative).
type hierLink struct {
	id     guid.GUID
	digest *wire.Digest
}

// hierView is the lock-free snapshot of the hierarchy the fan-out and
// relay paths route by, rebuilt under f.mu whenever hierarchy state
// changes (digest arrival, activation, peer departure, close).
type hierView struct {
	active   bool
	parent   guid.GUID
	up       *wire.Digest // parent's downward digest; nil = unknown
	children []hierLink
	peers    []hierLink
}

// SetHierarchy attaches the fabric to a super-peer hierarchy (call before
// or after Join; reconfiguration replaces the previous attachment). With
// MinFleet unsatisfied the fabric stays flat until enough peers are known.
func (f *Fabric) SetHierarchy(cfg HierarchyConfig) {
	if cfg.DigestWindow <= 0 {
		cfg.DigestWindow = defaultDigestWindow
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.hier = cfg
	f.hierSet = true
	register := !f.hierStatsOn
	f.hierStatsOn = true
	f.refreshHierSnapLocked()
	f.mu.Unlock()
	if register {
		f.rng.AddStatsSource(f.hierarchyStats)
	}
	f.maybeActivateHierarchy()
}

// maybeActivateHierarchy latches the hierarchy on once the configured
// fleet size is reached. Activation announces this fabric's flat interest
// set as empty — withdrawing its flat entries, since peers reach it through
// the hierarchy now — and starts the digest exchange.
func (f *Fabric) maybeActivateHierarchy() {
	fleet := len(f.node.Known()) + 1
	f.mu.Lock()
	if f.closed || !f.hierSet || f.hierOn || (f.hier.MinFleet > 0 && fleet < f.hier.MinFleet) {
		f.mu.Unlock()
		return
	}
	f.hierOn = true
	withdraw := len(f.local) > 0
	if withdraw {
		f.announceGen++ // the announced flat set just became empty
	}
	f.refreshHierSnapLocked()
	f.mu.Unlock()
	if withdraw {
		f.announceInterests(f.node.Known(), true)
	}
	f.touchDigestAnnouncements()
	f.reconcileTaps()
}

// hierarchyActive reports whether hierarchical routing is latched on.
func (f *Fabric) hierarchyActive() bool {
	h := f.hierSnap.Load()
	return h != nil && h.active
}

// refreshHierSnapLocked rebuilds the lock-free hierarchy view. Callers
// hold f.mu. The digests stored in the view are the immutable instances
// from the live tables (they are never mutated after construction), so
// sharing them lock-free is safe.
func (f *Fabric) refreshHierSnapLocked() {
	if !f.hierSet {
		return
	}
	v := &hierView{
		active: f.hierOn && !f.closed,
		parent: f.hier.Parent,
		up:     f.upDigest,
	}
	for id, l := range f.links {
		if d := l.routing().child; d != nil {
			v.children = append(v.children, hierLink{id: id, digest: d})
		}
	}
	sort.Slice(v.children, func(i, j int) bool { return guid.Less(v.children[i].id, v.children[j].id) })
	v.peers = make([]hierLink, 0, len(f.hier.Peers))
	for _, id := range f.hier.Peers {
		v.peers = append(v.peers, hierLink{id: id, digest: f.rowLocked(id).peer})
	}
	f.hierSnap.Store(v)
}

// rowLocked copies out the routing row of the link to id (zero when this
// fabric holds none). Callers hold f.mu.
func (f *Fabric) rowLocked(id guid.GUID) routeRow {
	if l := f.links[id]; l != nil {
		return l.routing()
	}
	return routeRow{}
}

// ----- digest computation -----

// subtreeDigestLocked summarizes everything below and including this
// fabric, leaving out one child's subtree (none with a nil except): its own
// interests — a filter with no concrete type widens to a wildcard — merged
// with every child's subtree digest. With a nil except it is the summary
// announced up to the parent and level-wise to peer super-peers. Callers
// hold f.mu.
func (f *Fabric) subtreeDigestLocked(except guid.GUID) *wire.Digest {
	d := wire.NewDigest(0)
	for i := range f.local {
		d.AddType(string(f.local[i].flt.Type))
	}
	for id, l := range f.links {
		if cd := l.routing().child; cd != nil && id != except {
			d.MergeFrom(cd)
		}
	}
	return d
}

// downDigestLocked summarizes the rest of the fleet as seen by one child:
// this fabric's own interests, every *other* child's subtree, every peer
// super-peer's subtree, and the world above the parent. Unknown components
// (a peer or parent whose digest has not arrived) widen to a wildcard —
// the child must keep forwarding up rather than silently dropping.
// Callers hold f.mu.
func (f *Fabric) downDigestLocked(child guid.GUID) *wire.Digest {
	d := f.subtreeDigestLocked(child)
	if !f.hier.Parent.IsNil() {
		if f.upDigest == nil {
			d.SetWildcard()
		} else {
			d.MergeFrom(f.upDigest)
		}
	}
	for _, id := range f.hier.Peers {
		if pd := f.rowLocked(id).peer; pd == nil {
			d.SetWildcard()
		} else {
			d.MergeFrom(pd)
		}
	}
	return d
}

// ----- digest announcements -----

// hierLinkIDsLocked lists every hierarchy neighbor an announcement could be
// owed to: the parent, the configured peer super-peers, and every known
// child. Callers hold f.mu.
func (f *Fabric) hierLinkIDsLocked() []guid.GUID {
	out := make([]guid.GUID, 0, 1+len(f.hier.Peers))
	if !f.hier.Parent.IsNil() {
		out = append(out, f.hier.Parent)
	}
	out = append(out, f.hier.Peers...)
	for id, l := range f.links {
		if l.routing().child != nil {
			out = append(out, id)
		}
	}
	return out
}

// digestCoalLocked returns the link's digest update coalescer, creating it
// on first use. Callers hold f.mu.
func (f *Fabric) digestCoalLocked(to guid.GUID) *flow.UpdateCoalescer {
	l := f.linkLocked(to)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.digestCoal == nil {
		l.digestCoal = flow.NewUpdateCoalescer(flow.UpdateConfig{
			Clock:  f.clk,
			Window: f.hier.DigestWindow,
			Send:   func() bool { return f.sendDigestTo(to) },
		})
	}
	return l.digestCoal
}

// touchDigestAnnouncements wakes the update coalescer of every hierarchy
// link: any of their summaries may have changed. Unchanged summaries are
// suppressed at send time, so over-touching costs no wire traffic.
func (f *Fabric) touchDigestAnnouncements() {
	f.mu.Lock()
	if f.closed || !f.hierOn {
		f.mu.Unlock()
		return
	}
	links := f.hierLinkIDsLocked()
	coals := make([]*flow.UpdateCoalescer, 0, len(links))
	for _, id := range links {
		coals = append(coals, f.digestCoalLocked(id))
	}
	f.mu.Unlock()
	for _, c := range coals {
		c.Touch()
	}
}

// sendDigestTo builds and sends the digest owed to one hierarchy link,
// stamped with the next generation. An unchanged summary is suppressed
// (the delta behavior: churn that cancels out never reaches the wire).
// A failed send has already run peerGone for the link, clearing its
// sent-state and stopping its coalescer; the next touch rebuilds both.
func (f *Fabric) sendDigestTo(to guid.GUID) bool {
	f.mu.Lock()
	if f.closed || !f.hierOn {
		f.mu.Unlock()
		return true
	}
	msg, ok := f.digestMsgLocked(to)
	if !ok {
		f.mu.Unlock()
		return true // link disappeared between touch and send
	}
	var d *wire.Digest
	if msg.Down {
		d = f.downDigestLocked(to)
	} else {
		d = f.subtreeDigestLocked(guid.Nil)
	}
	l := f.linkLocked(to)
	l.mu.Lock()
	unchanged := l.digestSent != nil && l.digestSent.Equal(d)
	if !unchanged {
		f.hierGen++
		d.Gen = f.hierGen
		l.digestSent = d
	}
	l.mu.Unlock()
	f.mu.Unlock()
	if unchanged {
		return true
	}
	msg.Digest = wire.EncodeDigest(d)
	if f.sendMsg(to, appDigest, msg) != nil {
		return false
	}
	f.DigestUpdatesSent.Inc()
	return true
}

// digestMsgLocked starts the digest announcement owed to one hierarchy
// link, stamped with the link's relation to this fabric: the parent gets
// our subtree as its child's, a peer super-peer as its peer's, and a child
// the rest of the fleet as its parent's. It reports false when to is no
// hierarchy link. Callers hold f.mu.
func (f *Fabric) digestMsgLocked(to guid.GUID) (digestMsg, bool) {
	var msg digestMsg
	switch {
	case to == f.hier.Parent:
		msg.Child = true
	case slices.Contains(f.hier.Peers, to):
		msg.Peer = true
	case f.rowLocked(to).child != nil:
		msg.Down = true
	default:
		return msg, false
	}
	return msg, true
}

// handleDigest ingests one hierarchy digest announcement: it is filed by
// the sender's declared relation (child subtree, peer subtree, or the
// parent's downward rest-of-fleet summary), stale generations are
// discarded, and a change re-summarizes this fabric's own announcements
// and tap demand.
func (f *Fabric) handleDigest(d overlay.Delivery) {
	var msg digestMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	var dig *wire.Digest
	if !msg.Remove {
		var err error
		if dig, err = wire.DecodeDigest(msg.Digest); err != nil {
			return
		}
	}
	f.mu.Lock()
	if f.closed || !f.hierSet {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(d.Origin)
	l.mu.Lock()
	if dig != nil {
		if dig.Gen <= l.digestGen {
			l.mu.Unlock()
			f.mu.Unlock()
			return // reordered update older than what we hold
		}
		l.digestGen = dig.Gen
	}
	changed := false
	switch {
	case msg.Child && f.hier.SuperPeer:
		changed = setDigest(&l.row.child, dig)
	case msg.Peer && slices.Contains(f.hier.Peers, d.Origin):
		changed = setDigest(&l.row.peer, dig)
	case msg.Down && d.Origin == f.hier.Parent:
		changed = setDigest(&f.upDigest, dig)
	default:
		// Role mismatch (a digest from a node that is not a configured
		// relation): ignored rather than filed somewhere it could route.
	}
	l.mu.Unlock()
	if changed {
		f.refreshHierSnapLocked()
	}
	f.mu.Unlock()
	if changed {
		f.reconcileTaps()
		f.touchDigestAnnouncements()
	}
}

// setDigest files a link digest (nil withdraws it) and reports whether the
// summary changed.
func setDigest(slot **wire.Digest, d *wire.Digest) bool {
	changed := !d.Equal(*slot)
	*slot = d
	return changed
}

// ----- routing -----

// digestAdmits reports whether a link digest may cover any of the events:
// a candidate filter type is the event's type, any of its dotted
// ancestors, or any declared equivalence-class member — exactly the type
// forms Filter.MatchesIn accepts, so digest routing can over-deliver
// (false positive, counted as spillover downstream) but never starve a
// filter the flat protocol would have served. A nil digest admits
// everything (the summary has not arrived yet).
func digestAdmits(d *wire.Digest, events []event.Event, reg *ctxtype.Registry) bool {
	if d == nil || d.Wildcard() {
		return true
	}
	if d.Empty() {
		return false
	}
	for i := range events {
		for cur := events[i].Type; cur != ""; cur = cur.Parent() {
			if d.MightMatch(string(cur)) {
				return true
			}
		}
		if reg != nil {
			for _, u := range reg.EquivSet(events[i].Type) {
				if d.MightMatch(string(u)) {
					return true
				}
			}
		}
	}
	return false
}

// forwardTargets computes a batch's next hops, excluding via members: the
// flat-announced interested peers (exact filter match against the
// copy-on-write snapshot) plus, when the hierarchy is active, every
// hierarchy link whose digest admits the batch — up to the parent, down
// into matching subtrees, across to matching peer super-peers.
func (f *Fabric) forwardTargets(events []event.Event, via guid.Set) []guid.GUID {
	var out []guid.GUID
	taken := guid.NewSet()
	take := func(id guid.GUID) {
		taken.Add(id)
		out = append(out, id)
	}
	for _, ent := range f.interestSnapshot() {
		if via.Has(ent.owner) || taken.Has(ent.owner) {
			continue
		}
		if matchAny(ent.filters, events, f.rng) {
			take(ent.owner)
		}
	}
	h := f.hierSnap.Load()
	if h != nil && h.active {
		reg := f.rng.Types()
		if !h.parent.IsNil() && !via.Has(h.parent) && !taken.Has(h.parent) && digestAdmits(h.up, events, reg) {
			take(h.parent)
		}
		for _, l := range h.children {
			if !via.Has(l.id) && !taken.Has(l.id) && digestAdmits(l.digest, events, reg) {
				take(l.id)
			}
		}
		for _, l := range h.peers {
			if !via.Has(l.id) && !taken.Has(l.id) && digestAdmits(l.digest, events, reg) {
				take(l.id)
			}
		}
	}
	return out
}

// noteSubtreeForward attributes one forwarded batch to the child subtree
// it entered, for the per-subtree gauges. Free on flat fabrics.
func (f *Fabric) noteSubtreeForward(to guid.GUID) {
	if f.hierSnap.Load() == nil {
		return
	}
	f.mu.Lock()
	if l := f.links[to]; l != nil {
		l.mu.Lock()
		if l.row.child != nil {
			l.row.childFwd++
		}
		l.mu.Unlock()
	}
	f.mu.Unlock()
}

// tapDemandLocked derives the mediator tap demand. Flat: the announced
// interest table, as before. Hierarchical: the flat table plus a prefix
// filter per digest prefix of every hierarchy link — a fabric must tap any
// local publish some subtree, peer super-peer, or the upward rest-of-fleet
// may want forwarded. An unknown or wildcard link digest forces the
// residual tap (never under-tap). Callers hold f.mu.
func (f *Fabric) tapDemandLocked() (types []ctxtype.Type, wildcard bool) {
	demand := make(map[guid.GUID][]event.Filter, len(f.links)+1)
	// addDigest folds one link digest into the demand map (as fresh filter
	// slices — never appended onto the live rows' shared slices) and
	// reports whether it forces the residual tap.
	addDigest := func(id guid.GUID, d *wire.Digest) bool {
		if d == nil || d.Wildcard() {
			return true
		}
		flts := append([]event.Filter(nil), demand[id]...)
		for _, p := range d.Prefixes() {
			flts = append(flts, event.Filter{Type: ctxtype.Type(p)})
		}
		demand[id] = flts
		return false
	}
	for id, l := range f.links {
		r := l.routing()
		if len(r.interests) > 0 {
			demand[id] = r.interests
		}
		if f.hierOn && r.child != nil && addDigest(id, r.child) {
			return nil, true
		}
	}
	if f.hierOn {
		if !f.hier.Parent.IsNil() && addDigest(f.hier.Parent, f.upDigest) {
			return nil, true
		}
		for _, id := range f.hier.Peers {
			if addDigest(id, f.rowLocked(id).peer) {
				return nil, true
			}
		}
	}
	return desiredTapTypesLocked(demand, f.rng.Types())
}

// ----- diagnostics and gauges -----

// InterestStateSize reports the per-fabric interest routing state: flat
// interest-table entries (non-empty ones — what fan-out actually scans)
// plus hierarchy digest links. The E16 sublinearity experiment plots this
// against fleet size.
func (f *Fabric) InterestStateSize() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	interests, children, peers := f.rowCountsLocked()
	n := interests + children + peers
	if f.upDigest != nil {
		n++
	}
	return n
}

// HierarchyCounts reports how much of the hierarchy this fabric has heard
// from: known child digests, known peer digests, and whether the parent's
// downward digest has arrived (convergence checks in tests and sims).
func (f *Fabric) HierarchyCounts() (children, peers int, upKnown bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, children, peers = f.rowCountsLocked()
	return children, peers, f.upDigest != nil
}

// rowCountsLocked counts the links holding interests, a child digest and a
// peer digest. Callers hold f.mu.
func (f *Fabric) rowCountsLocked() (interests, children, peers int) {
	for _, l := range f.links {
		r := l.routing()
		if len(r.interests) > 0 {
			interests++
		}
		if r.child != nil {
			children++
		}
		if r.peer != nil {
			peers++
		}
	}
	return interests, children, peers
}

// OverlayCounters reports the overlay node's delivered/relayed message
// counts. Summed across a fleet they measure total overlay traffic —
// E16's messages-per-publish metric.
func (f *Fabric) OverlayCounters() (delivered, relayed uint64) {
	return f.node.Delivered(), f.node.Relayed()
}

// maxSubtreeGauges bounds the per-subtree forwarding gauges, top-K plus an
// "other" bucket — same contract as the Range's per-source gauges.
const maxSubtreeGauges = 8

// subtreeCount is one per-subtree gauge entry: the child's short id (or
// "other" for the aggregated remainder) and its forwarded-batch count.
type subtreeCount struct {
	key string
	n   uint64
}

// topSubtreeForwards folds the per-child forward counts into at most
// maxSubtreeGauges labelled entries plus an "other" remainder. Callers
// hold f.mu.
//
//lint:bounded
func (f *Fabric) topSubtreeForwardsLocked() []subtreeCount {
	type kv struct {
		id guid.GUID
		n  uint64
	}
	var all []kv
	for id, l := range f.links {
		if n := l.routing().childFwd; n > 0 {
			all = append(all, kv{id, n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return guid.Less(all[i].id, all[j].id)
	})
	out := make([]subtreeCount, 0, maxSubtreeGauges+1)
	var other uint64
	for i, e := range all {
		if i < maxSubtreeGauges {
			out = append(out, subtreeCount{key: e.id.Short(), n: e.n})
			continue
		}
		other += e.n
	}
	if other > 0 {
		out = append(out, subtreeCount{key: "other", n: other})
	}
	return out
}

// hierarchyStats is the Range stats-source contributor registered by
// SetHierarchy: per-level hierarchy gauges under scinet.hier.*, with the
// per-subtree forwarding counts bounded through topSubtreeForwards.
func (f *Fabric) hierarchyStats() map[string]float64 {
	f.mu.Lock()
	interests, children, peers := f.rowCountsLocked()
	out := map[string]float64{
		"scinet.hier.active":           b2f(f.hierOn),
		"scinet.hier.super":            b2f(f.hier.SuperPeer),
		"scinet.hier.level":            float64(f.hier.Level),
		"scinet.hier.children":         float64(children),
		"scinet.hier.peers":            float64(peers),
		"scinet.hier.gen":              float64(f.hierGen),
		"scinet.hier.interest_entries": float64(interests),
	}
	for _, e := range f.topSubtreeForwardsLocked() {
		out["scinet.hier.subtree."+e.key+".forwarded"] = float64(e.n)
	}
	f.mu.Unlock()
	out["scinet.hier.spillover"] = float64(f.SpilloverDropped.Value())
	out["scinet.hier.digest_updates"] = float64(f.DigestUpdatesSent.Value())
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
