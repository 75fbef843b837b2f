package scinet

// Cross-range interests: the local refcounted set, its delta-generation
// gossip, the peers' announced rows, and the mediator taps they demand.

import (
	"encoding/json"
	"slices"
	"sort"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/overlay"
)

// interestMsg announces one fabric's cross-range interests. Receivers
// update their table entry for Owner and re-gossip changes, so records
// cross partially connected topologies.
//
// Gen orders announcements per owner and is never zero: Full carries the
// complete set (sent on first contact, on resync, and whenever the
// receiver's delta chain broke), while Add/Del carry only the change
// since Prev — a receiver applies a delta only when Prev equals the
// generation it holds, and otherwise asks the owner for a full
// re-announce (appInterestSync). Stale generations are discarded, so
// reordered gossip cannot roll an entry back.
type interestMsg struct {
	Owner   guid.GUID      `json:"owner"`
	Filters []event.Filter `json:"filters,omitempty"`
	// Remove withdraws all of Owner's interests (departure, or a Full
	// announcement of an empty set).
	Remove bool `json:"remove,omitempty"`
	// Gen orders announcements per owner; zero is malformed.
	Gen uint64 `json:"gen"`
	// Prev is the generation a delta applies on top of.
	Prev uint64 `json:"prev,omitempty"`
	// Full marks a complete-set announcement (Filters is authoritative).
	Full bool `json:"full,omitempty"`
	// Add/Del are the delta form's changes since Prev.
	Add []event.Filter `json:"add,omitempty"`
	Del []event.Filter `json:"del,omitempty"`
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
	var gen uint64
	hier := false
	if !found {
		f.local = append(f.local, localInterest{flt: flt, refs: 1})
		f.announceGen++
		gen = f.announceGen
		hier = f.hierOn
	}
	f.mu.Unlock()
	if !found {
		if hier {
			f.touchDigestAnnouncements()
		} else {
			f.announceChange(gen, []event.Filter{flt}, nil)
		}
	}
}

// RemoveInterest drops one reference to a previously added interest. The
// filter is withdrawn from peers only when its last reference goes — two
// SubscribeRemote calls sharing one filter survive the first withdrawal.
// Peers whose delta chain is intact get just the withdrawal; a withdrawal
// that empties the whole set makes peers drop this fabric's entry entirely.
func (f *Fabric) RemoveInterest(flt event.Filter) {
	f.mu.Lock()
	changed := false
	for i := range f.local {
		if f.local[i].flt == flt {
			f.local[i].refs--
			if f.local[i].refs <= 0 {
				f.local = append(f.local[:i], f.local[i+1:]...)
				changed = true
			}
			break
		}
	}
	closed := f.closed
	var gen uint64
	hier := false
	if changed && !closed {
		f.announceGen++
		gen = f.announceGen
		hier = f.hierOn
	}
	f.mu.Unlock()
	if !changed || closed {
		return
	}
	if hier {
		f.touchDigestAnnouncements()
		return
	}
	f.announceChange(gen, nil, []event.Filter{flt})
}

// SubscribeRemote subscribes owner to events matching flt published
// anywhere in the SCINET: a local mediator subscription receives both local
// publishes and ingested cross-range batches, and the filter is announced
// as an interest so sibling fabrics forward matching events here.
func (f *Fabric) SubscribeRemote(owner guid.GUID, flt event.Filter, h func(event.Event)) (mediator.Record, error) {
	rec, err := f.rng.Mediator().Subscribe(owner, flt, h, mediator.SubOptions{QueueLen: tapQueueLen})
	if err != nil {
		return mediator.Record{}, err
	}
	f.AddInterest(flt)
	return rec, nil
}

// UnsubscribeRemote tears down a SubscribeRemote subscription symmetrically:
// the local mediator record is cancelled and its announced interest
// withdrawn, so peers stop forwarding (and tear down idle taps) instead of
// shipping events nobody consumes.
func (f *Fabric) UnsubscribeRemote(rec mediator.Record) error {
	err := f.rng.Mediator().Cancel(rec.ID)
	f.RemoveInterest(rec.Filter)
	return err
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

// announceInterests sends this fabric's full interest set to every known
// peer (join-time anti-entropy; no-op while the hierarchy is active).
func (f *Fabric) announceInterests() {
	for _, peer := range f.node.Known() {
		f.announceFull(peer, false)
	}
}

// announceChange propagates one local interest change to every known peer:
// a delta to peers whose chain is intact, a full set otherwise.
func (f *Fabric) announceChange(gen uint64, add, del []event.Filter) {
	for _, peer := range f.node.Known() {
		f.announceChangeTo(peer, gen, add, del)
	}
}

// announceChangeTo ships one interest change to one peer. The delta form
// goes only when the peer was last sent exactly the previous generation;
// any doubt — first contact, a skipped announcement, out-of-order change
// goroutines — falls back to the full set stamped with the current
// generation. A change already covered by a newer announcement to this
// peer is skipped outright.
func (f *Fabric) announceChangeTo(peer guid.GUID, gen uint64, add, del []event.Filter) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	msg := interestMsg{Owner: f.node.ID()}
	l := f.linkLocked(peer)
	l.mu.Lock()
	switch {
	case l.sentGen == gen-1: // gen ≥ 2 here, so a never-announced peer never matches
		msg.Gen = gen
		msg.Prev = gen - 1
		msg.Add = add
		msg.Del = del
	case gen > l.sentGen:
		msg.Gen = f.announceGen
		msg.Full = true
		msg.Filters = f.localFiltersLocked()
		msg.Remove = len(msg.Filters) == 0
	default:
		l.mu.Unlock()
		f.mu.Unlock()
		return // a newer announcement already covered this change
	}
	l.sentGen = msg.Gen
	l.mu.Unlock()
	f.mu.Unlock()
	_ = f.sendMsg(peer, appInterest, msg)
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

// noteSentGenLocked records the local interest generation last announced to
// peer. Callers hold f.mu.
func (f *Fabric) noteSentGenLocked(peer guid.GUID, gen uint64) {
	l := f.linkLocked(peer)
	l.mu.Lock()
	l.sentGen = gen
	l.mu.Unlock()
}

// announceFull sends the full set to one peer: on first contact, skipped
// when there is nothing to say; forced (the resync reply), sent even when
// empty so a ghost entry at the peer is cleared. Never in hierarchy mode:
// digests replace flat announcements there.
func (f *Fabric) announceFull(peer guid.GUID, force bool) {
	f.mu.Lock()
	filters := f.localFiltersLocked()
	skip := f.closed || f.hierOn || (!force && len(filters) == 0)
	gen := f.announceGen
	if !skip {
		f.noteSentGenLocked(peer, gen)
	}
	f.mu.Unlock()
	if skip {
		return
	}
	_ = f.sendMsg(peer, appInterest, interestMsg{Owner: f.node.ID(), Gen: gen, Full: true, Filters: filters, Remove: len(filters) == 0})
}

// handleInterest ingests an interest announcement, establishes or tears
// down the local mediator tap, and re-gossips changed records to other
// peers so interests cross partially connected topologies. Generation-
// stamped announcements are ordered per owner: stale ones are discarded,
// deltas apply only on top of exactly the generation they name, and a gap
// triggers a full resync from the owner instead of a blind apply.
func (f *Fabric) handleInterest(d overlay.Delivery) {
	var msg interestMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	if msg.Gen == 0 || msg.Owner == f.node.ID() {
		return // malformed, or our own record echoed back
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(msg.Owner)
	l.mu.Lock()
	changed := false
	resync := false
	switch {
	case msg.Gen <= l.interestGen:
		// Stale or duplicate generation: nothing to apply or re-gossip.
	case msg.Full || msg.Remove:
		// A full set: replace or delete outright.
		l.interestGen = msg.Gen
		if msg.Remove || len(msg.Filters) == 0 {
			changed = l.row.interests != nil
			l.row.interests = nil
		} else if !slices.Equal(l.row.interests, msg.Filters) {
			l.row.interests = append([]event.Filter(nil), msg.Filters...)
			changed = true
		}
	case msg.Prev != l.interestGen:
		// A delta whose base we do not hold: the chain broke (lost or
		// reordered announcement) — ask the owner for the full set.
		resync = true
	default:
		// In-sequence delta: remove Del, add Add, drop the entry if empty
		// (an empty entry would cost snapshot scans for nothing).
		l.interestGen = msg.Gen
		l.row.interests = applyDelta(l.row.interests, msg.Add, msg.Del)
		changed = true
	}
	l.mu.Unlock()
	if changed {
		f.refreshInterestSnapLocked()
	}
	f.mu.Unlock()
	if resync {
		_ = f.sendMsg(msg.Owner, appInterestSync, interestSyncMsg{From: f.node.ID()})
		return
	}
	f.reconcileTaps()
	if !changed {
		return
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	for _, peer := range f.node.Known() {
		if peer == d.Origin || peer == msg.Owner {
			continue
		}
		_ = f.node.Send(peer, appInterest, payload, nil)
	}
}

// applyDelta returns cur without del and with add, as a fresh slice (nil
// when empty): the live row's slices are shared with the snapshot and never
// edited in place.
func applyDelta(cur, add, del []event.Filter) []event.Filter {
	next := make([]event.Filter, 0, len(cur)+len(add))
	for _, fl := range cur {
		if !slices.Contains(del, fl) {
			next = append(next, fl)
		}
	}
	for _, al := range add {
		if !slices.Contains(next, al) {
			next = append(next, al)
		}
	}
	if len(next) == 0 {
		return nil
	}
	return next
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
