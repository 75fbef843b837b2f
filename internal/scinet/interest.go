package scinet

// Cross-range interests: the local refcounted set, its whole-set gossip,
// the peers' announced rows, and the mediator taps they demand.

import (
	"encoding/json"
	"slices"
	"sort"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/overlay"
	"sci/internal/registry"
)

// interestMsg announces one fabric's whole cross-range interest set.
// Receivers replace their entry for Owner and re-gossip the announcement
// unchanged, so records cross partially connected topologies. That is why
// this body names its owner while no other body names its sender: a
// re-gossiped announcement arrives from a relay, not from its owner.
//
// Gen orders announcements per owner and is never zero; a receiver keeps
// an announcement only when its generation is newer than the one it holds,
// so reordered gossip cannot roll an entry back, and a lost announcement is
// healed by the owner's next one. An empty Filters withdraws the entry.
type interestMsg struct {
	Owner   guid.GUID      `json:"owner"`
	Gen     uint64         `json:"gen"`
	Filters []event.Filter `json:"filters,omitempty"`
}

// tapQueueLen is the queue capacity of the fabric's mediator tap and of
// SubscribeRemote subscriptions: generous, because a tap absorbs whole
// publish bursts for forwarding.
const tapQueueLen = 4096

// localInterest is one of this fabric's own announced interests. Two
// SubscribeRemote calls sharing a filter share one entry: the refcount
// makes the first withdrawal survive the second subscription, so interest
// lifetime follows subscription cancellation exactly.
type localInterest struct {
	flt  event.Filter
	refs int
}

// AddInterest registers a cross-range interest: events matching flt that
// are published in sibling Ranges will be forwarded here in coalesced
// batches and ingested through the local Range's batched dispatch path.
// The interest is announced to every known fabric (and re-announced to
// fabrics learned later). Interests are refcounted by filter: a second
// AddInterest of the same filter bumps the count instead of duplicating
// the announcement, and only the matching number of RemoveInterest calls
// withdraws it.
func (f *Fabric) AddInterest(flt event.Filter) {
	f.mu.Lock()
	found := false
	for i := range f.local {
		if f.local[i].flt == flt {
			f.local[i].refs++
			found = true
			break
		}
	}
	if !found {
		f.local = append(f.local, localInterest{flt: flt, refs: 1})
		f.announceGen++
	}
	f.mu.Unlock()
	if !found {
		f.interestsChanged()
	}
}

// RemoveInterest drops one reference to a previously added interest. The
// filter is withdrawn from peers only when its last reference goes — two
// SubscribeRemote calls sharing one filter survive the first withdrawal.
func (f *Fabric) RemoveInterest(flt event.Filter) {
	f.mu.Lock()
	changed := false
	for i := range f.local {
		if f.local[i].flt == flt {
			f.local[i].refs--
			if f.local[i].refs <= 0 {
				f.local = append(f.local[:i], f.local[i+1:]...)
				f.announceGen++
				changed = true
			}
			break
		}
	}
	f.mu.Unlock()
	if changed {
		f.interestsChanged()
	}
}

// interestsChanged propagates a change of the local set: as digests while
// the hierarchy is active, as a whole-set announcement to every known
// fabric otherwise.
func (f *Fabric) interestsChanged() {
	if f.hierarchyActive() {
		f.touchDigestAnnouncements()
		return
	}
	f.announceInterests(f.node.Known(), true)
}

// SubscribeRemote subscribes owner to events matching flt published
// anywhere in the SCINET: a local mediator subscription receives both local
// publishes and ingested cross-range batches, and the filter is announced
// as an interest so sibling fabrics forward matching events here. The
// interest lasts until UnsubscribeRemote or until owner departs the Range.
func (f *Fabric) SubscribeRemote(owner guid.GUID, flt event.Filter, h func(event.Event)) (mediator.Record, error) {
	rec, err := f.rng.Mediator().Subscribe(owner, flt, h, mediator.SubOptions{QueueLen: tapQueueLen})
	if err != nil {
		return mediator.Record{}, err
	}
	f.mu.Lock()
	f.remote[rec.ID] = rec
	f.mu.Unlock()
	f.AddInterest(flt)
	// An owner departing meanwhile had the subscription cancelled, perhaps
	// before ownerDeparted could find it here.
	if _, ok := f.rng.Mediator().Get(rec.ID); !ok {
		f.withdrawRemote(func(r mediator.Record) bool { return r.ID == rec.ID })
	}
	return rec, nil
}

// UnsubscribeRemote tears down a SubscribeRemote subscription symmetrically:
// the local mediator record is cancelled and its announced interest
// withdrawn, so peers stop forwarding (and tear down idle taps) instead of
// shipping events nobody consumes.
func (f *Fabric) UnsubscribeRemote(rec mediator.Record) error {
	err := f.rng.Mediator().Cancel(rec.ID)
	f.withdrawRemote(func(r mediator.Record) bool { return r.ID == rec.ID })
	return err
}

// ownerDeparted watches the Range's registrar: the Range cancels a
// departed entity's subscriptions, and this withdraws the interests its
// SubscribeRemote subscriptions announced.
func (f *Fabric) ownerDeparted(reg registry.Registration, _ registry.Reason) {
	f.withdrawRemote(func(r mediator.Record) bool { return r.Owner == reg.Entity })
}

// withdrawRemote forgets the SubscribeRemote subscriptions that match and
// drops one interest reference for each. A subscription is forgotten once,
// whichever of UnsubscribeRemote and a departure comes first.
func (f *Fabric) withdrawRemote(match func(mediator.Record) bool) {
	var flts []event.Filter
	f.mu.Lock()
	for id, rec := range f.remote {
		if match(rec) {
			delete(f.remote, id)
			flts = append(flts, rec.Filter)
		}
	}
	f.mu.Unlock()
	for _, flt := range flts {
		f.RemoveInterest(flt)
	}
}

// ForgetInterest drops one fabric's entry from the local interest table
// without touching the peer itself — a partial-knowledge hook for tests
// and experiments (a fabric that never learned of an interested peer must
// rely on relays to cover it, the multi-hop topology E13 exercises).
// In-flight gossip may re-add the entry; callers loop until it stays gone.
// It reports whether an entry was present.
func (f *Fabric) ForgetInterest(owner guid.GUID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.links[owner]
	if l == nil {
		return false
	}
	l.mu.Lock()
	ok := l.row.interests != nil
	l.row.interests = nil
	l.mu.Unlock()
	if ok {
		f.refreshInterestSnapLocked()
	}
	return ok
}

// Interests returns the known interest table: fabric node → announced
// filters (diagnostics; the forwarding decisions read the live table).
func (f *Fabric) Interests() map[guid.GUID][]event.Filter {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[guid.GUID][]event.Filter)
	for id, l := range f.links {
		if flts := l.routing().interests; flts != nil {
			out[id] = append([]event.Filter(nil), flts...)
		}
	}
	return out
}

// announceInterests sends this fabric's announced interest set to peers,
// stamped with its generation. While the hierarchy is active the announced
// set is empty — digests carry the interests there — so an announcement
// then withdraws this fabric's flat entries. An empty set goes out only
// when change is set: on first contact a peer holds nothing to withdraw.
//
// Every change of the announced set (a local change, the hierarchy latch)
// bumps announceGen under f.mu, so a generation names one set and the
// newest generation a receiver holds is the newest set, whichever of
// several concurrent announcements arrives last.
func (f *Fabric) announceInterests(peers []guid.GUID, change bool) {
	f.mu.Lock()
	var filters []event.Filter
	if !f.hierOn {
		filters = f.localFiltersLocked()
	}
	if f.closed || len(peers) == 0 || (!change && len(filters) == 0) {
		f.mu.Unlock()
		return
	}
	msg := interestMsg{Owner: f.node.ID(), Gen: f.announceGen, Filters: filters}
	f.mu.Unlock()
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	for _, peer := range peers {
		_ = f.node.Send(peer, appInterest, payload, nil)
	}
}

// localFiltersLocked snapshots this fabric's own interest filters (one
// entry per distinct filter, whatever its refcount). Callers hold f.mu.
func (f *Fabric) localFiltersLocked() []event.Filter {
	out := make([]event.Filter, len(f.local))
	for i := range f.local {
		out[i] = f.local[i].flt
	}
	return out
}

// handleInterest ingests an interest announcement, establishes or tears
// down the local mediator tap, and re-gossips a changed entry to the other
// peers so interests cross partially connected topologies. Only an
// announcement newer than the held generation is applied.
func (f *Fabric) handleInterest(d overlay.Delivery) {
	var msg interestMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	if msg.Gen == 0 || msg.Owner.IsNil() || msg.Owner == f.node.ID() {
		return // malformed, or our own record echoed back
	}
	if len(msg.Filters) == 0 {
		msg.Filters = nil // an empty entry would cost snapshot scans for nothing
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(msg.Owner)
	l.mu.Lock()
	changed := false
	if msg.Gen > l.interestGen {
		l.interestGen = msg.Gen
		changed = !slices.Equal(l.row.interests, msg.Filters)
		l.row.interests = msg.Filters
	}
	l.mu.Unlock()
	if changed {
		f.refreshInterestSnapLocked()
	}
	f.mu.Unlock()
	if !changed {
		return
	}
	f.reconcileTaps()
	for _, peer := range f.node.Known() {
		if peer != d.Origin && peer != msg.Owner {
			_ = f.node.Send(peer, appInterest, d.Payload, nil)
		}
	}
}

// desiredTapTypesLocked derives the mediator tap set the interest table
// demands: the minimal set of concrete filter types covering every type a
// peer announced, with hierarchical overlap deduplicated (an interest in
// "temperature.celsius" is already covered by a tap on "temperature", and
// tapping both would forward those events twice). wildcard is true when a
// peer's filter names no concrete type — or when declared semantic
// equivalences could make one event match two typed taps — in which case
// one residual-tier tap serves everything, exactly the pre-typed-tap
// behaviour. Callers hold f.mu.
func desiredTapTypesLocked(interests map[guid.GUID][]event.Filter, reg *ctxtype.Registry) (types []ctxtype.Type, wildcard bool) {
	if len(interests) == 0 {
		return nil, false
	}
	set := make(map[ctxtype.Type]bool)
	for _, flts := range interests {
		for _, fl := range flts {
			if fl.Type == "" || fl.Type == ctxtype.Wildcard {
				return nil, true
			}
			set[fl.Type] = true
		}
	}
	all := make([]ctxtype.Type, 0, len(set))
	for t := range set {
		all = append(all, t)
	}
	// Shallowest first, name-ordered for determinism: an ancestor always
	// precedes its descendants, so one pass keeps only uncovered types.
	sort.Slice(all, func(i, j int) bool {
		if di, dj := all[i].Depth(), all[j].Depth(); di != dj {
			return di < dj
		}
		return all[i] < all[j]
	})
	kept := all[:0]
outer:
	for _, t := range all {
		for _, k := range kept {
			if t.HasAncestor(k) {
				continue outer
			}
		}
		kept = append(kept, t)
	}
	// Equivalence guard: the dispatch index also matches an event to a tap
	// through the event type's declared equivalence class, so two kept taps
	// double-forward when any member of one tap's class reaches another
	// kept tap. Kept types have no ancestor pairs, so any double match must
	// route through a class member — scanning the kept types' classes is
	// sound. Fall back to the single residual tap rather than duplicate.
	if reg != nil && len(kept) > 1 {
		for _, k := range kept {
			for _, u := range reg.EquivSet(k) {
				hits := 0
				for _, k2 := range kept {
					if u.HasAncestor(k2) || reg.Satisfies(u, k2) {
						hits++
					}
				}
				if hits > 1 {
					return nil, true
				}
			}
		}
	}
	return kept, false
}

// reconcileTaps reconciles the mediator taps with demand: one batch
// subscription per type the interest table requires (desiredTapTypesLocked),
// or a single residual-tier tap when a wildcard interest forces it —
// typed taps ride the dispatch index's exact-pattern tier, so fan-out no
// longer drags the publisher's index-hit ratio. Demand is recomputed from
// the live interest table under the fabric lock on every pass (a caller's
// snapshot could be stale by the time it acts: a concurrent interest-add
// and interest-remove must never leave interested peers without a tap),
// and the loop runs until observation and state agree. Missing taps are
// established before superseded ones are cancelled, so a reshape (an
// ancestor interest subsuming a live descendant tap, or a wildcard
// fallback) never opens a window in which matching publishes reach no
// tap; the cost is that an event may transiently match both the old and
// the new tap during the handover and be forwarded twice — context
// streams are freshest-wins, so a rare duplicate at reconfiguration is
// preferred over silent loss. Every tap is filtered to locally produced
// events (Range == this Range), so ingested cross-range events — which
// keep their origin Range stamp — can never re-enter the forwarding
// path; no tap exists while no peer is interested, keeping the cost off
// Ranges nobody watches.
func (f *Fabric) reconcileTaps() {
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		types, wildcard := f.tapDemandLocked()
		want := make(map[ctxtype.Type]bool, len(types)+1)
		if wildcard {
			want[ctxtype.Wildcard] = true
		}
		for _, t := range types {
			want[t] = true
		}
		var add ctxtype.Type
		added := false
		for t := range want {
			if _, ok := f.taps[t]; !ok {
				add, added = t, true
				break
			}
		}
		var cancel []guid.GUID
		if !added {
			// Only after every wanted tap is live may the superseded ones
			// go: cancel-first would lose matching publishes in between.
			for t, id := range f.taps {
				if !want[t] {
					cancel = append(cancel, id)
					delete(f.taps, t)
				}
			}
		}
		f.mu.Unlock()
		for _, id := range cancel {
			_ = f.rng.Mediator().Cancel(id)
		}
		if !added {
			if len(cancel) > 0 {
				continue // re-check: demand may have shifted during cancels
			}
			return
		}
		flt := event.Filter{Range: f.rng.ID()}
		if add != ctxtype.Wildcard {
			flt.Type = add
		}
		// Every delivered run of local publishes enters the fan-out
		// coalescer under one lock acquisition.
		rec, err := f.rng.Mediator().SubscribeBatch(f.node.ID(), flt, f.fan.AddAll,
			mediator.SubOptions{QueueLen: tapQueueLen})
		if err != nil {
			return
		}
		f.mu.Lock()
		if _, dup := f.taps[add]; f.closed || dup {
			// Lost a race (concurrent establish, or closed meanwhile): ours
			// is surplus.
			f.mu.Unlock()
			_ = f.rng.Mediator().Cancel(rec.ID)
			if f.isClosed() {
				return
			}
			continue
		}
		f.taps[add] = rec.ID
		f.mu.Unlock()
		// Loop: more taps may be missing, or demand changed meanwhile.
	}
}

// interestEntry is one peer's row of the copy-on-write interest snapshot
// fanOut and relay match against without holding f.mu: a large interest
// table must not stall batch ingest behind the fabric lock. The filter
// slices are shared with the live table, which replaces them wholesale on
// change and never mutates them in place.
type interestEntry struct {
	owner   guid.GUID
	filters []event.Filter
}

// refreshInterestSnapLocked rebuilds the snapshot from the live table,
// sorted by owner for deterministic recipient order. Called under f.mu at
// every point the interest table changes. Entries with no filters are
// skipped — they can never match, and a fleet's worth of empty rows would
// tax every flush and relay for nothing.
func (f *Fabric) refreshInterestSnapLocked() {
	snap := make([]interestEntry, 0, len(f.links))
	for owner, l := range f.links {
		if flts := l.routing().interests; len(flts) > 0 {
			snap = append(snap, interestEntry{owner: owner, filters: flts})
		}
	}
	sort.Slice(snap, func(i, j int) bool { return guid.Less(snap[i].owner, snap[j].owner) })
	f.interestSnap.Store(&snap)
}

// interestSnapshot returns the current snapshot (stored by NewFabric).
func (f *Fabric) interestSnapshot() []interestEntry { return *f.interestSnap.Load() }
