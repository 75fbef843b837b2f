package scinet

// Cross-range fan-out: forwarding local publishes to interested peers,
// ingesting and relaying received batches, and the throttled relay backlog.

import (
	"time"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/overlay"
	"sci/internal/server"
	"sci/internal/wire"
)

// seenWindow bounds the duplicate-suppression window: how many recently
// ingested batch ids a fabric remembers.
const seenWindow = 4096

// fanOut ships one already-bounded chunk of locally published events to
// every next hop that wants it — flat-announced interested peers plus, in
// hierarchy mode, the hierarchy links whose digest admits the batch —
// stamped with this fabric as origin and a hop set covering origin plus
// all recipients: the loop-suppression contract that lets relays extend
// coverage without ever duplicating or echoing.
func (f *Fabric) fanOut(events []event.Event) {
	// Interest matching runs against the lock-free snapshots: a wide table
	// of per-peer filters must not serialize every flush behind f.mu. Close
	// empties both snapshots, so a closed fabric matches nothing.
	self := f.node.ID()
	recips := f.forwardTargets(events, guid.NewSet(self))
	if len(recips) == 0 {
		return
	}
	// Events travel as one batch, header (origin, batch id, hop set)
	// included, shared across every recipient; nothing on this path is
	// JSON. The chunk ships as is: the coalescer never rewrites a chunk it
	// has handed to Send (flow.Config.Send), so the batch may keep it.
	via := make([]guid.GUID, 0, len(recips)+1)
	via = append(via, self)
	via = append(via, recips...)
	batch := &wire.NativeBatch{Events: events, Origin: self, ID: guid.New(guid.KindEvent), Via: via}
	for _, to := range recips {
		if f.node.Send(to, appEventBatch, nil, batch) != nil {
			f.ForwardFailures.Add(uint64(len(events)))
			continue
		}
		f.BatchesForwarded.Inc()
		f.EventsForwarded.Add(uint64(len(events)))
		f.noteSubtreeForward(to)
	}
}

// handleEventBatch ingests a scinet.event_batch message by its batch
// header: routed query results go to their waiting consumer; fan-out
// batches enter the local Range's batched dispatch path and are relayed to
// interested peers the hop set does not cover.
func (f *Fabric) handleEventBatch(d overlay.Delivery) {
	b := d.Batch
	if b == nil {
		return
	}
	if b.Origin == f.node.ID() {
		// A batch must never return to its origin.
		f.EchoesDropped.Inc()
		return
	}
	if !b.Query.IsNil() {
		// Routed results count only from the fabric the query was sent to.
		var caa *entity.CAA
		if l := f.lookupLink(d.Origin); l != nil {
			caa = l.consumer(b.Query)
		}
		if caa == nil {
			return
		}
		events, _ := nativeEvents(b, guid.Nil)
		caa.ConsumeAll(events)
		// Credit reports for routed-query traffic coalesce per peer: every
		// (peer, query) coalescer at the sender tracks the same cumulative
		// figure, so one frame per window covers them all.
		f.noteAck(d.Origin, len(b.Events), true)
		return
	}

	// Duplicate window: two relays may each cover the same fabric missing
	// from a sender's hop set; only the first copy of a batch id is
	// ingested.
	if !b.ID.IsNil() && !f.markSeen(b.ID) {
		f.DuplicatesDropped.Inc()
		return
	}

	// Events stamped with the local Range are echoes of our own production
	// regardless of what the header claims, and unstamped events cannot be
	// told apart from it; both are dropped for loop safety.
	events, echoes := nativeEvents(b, f.rng.ID())
	if echoes > 0 {
		f.EchoesDropped.Add(uint64(echoes))
	}
	// Ingest only what this fabric asked for: a coalesced chunk may carry
	// co-batched events matching none of our interests (whole batches
	// travel so relays can serve peers with different filters), and those
	// must not leak into local dispatch AddInterest never asked about.
	f.mu.Lock()
	local := f.localFiltersLocked()
	f.mu.Unlock()
	keep := keepMatching(events, local, f.rng.Types())
	if len(keep) > 0 {
		f.BatchesIngested.Inc()
		f.EventsIngested.Add(uint64(len(keep)))
		// Every kept event carries a foreign Range stamp (nativeEvents
		// dropped the rest), so there is nothing to stamp: the bus takes the
		// slice as a read-only view — it may be the received batch itself,
		// which relay below keeps reading. The ingest is attributed to the
		// fabric that shipped it (origin or relay): any drops it causes
		// count against that link, and the ack below reports them.
		_ = f.rng.Mediator().PublishAllOwnedFrom(d.Origin, keep)
	}
	// The reply hint: report this Range's flow credit to whichever fabric
	// shipped the batch, so its coalescer can throttle. Noted after the
	// ingest so the report covers this batch's own drops, not last
	// batch's; coalesced per peer so a relayed burst answers with one
	// frame, not one per message.
	f.noteAck(d.Origin, len(b.Events), false)
	// Relays match against the full batch: peers' filters differ from ours.
	relayed := 0
	if len(events) > 0 {
		relayed = f.relay(b, events)
	}
	// A hierarchy-routed batch that crossed this hop for nobody — matched
	// no local filter, relayed nowhere — is a digest false positive:
	// tolerated spillover, counted so E16 can bound its rate.
	if len(events) > 0 && len(keep) == 0 && relayed == 0 && f.hierarchyActive() {
		f.SpilloverDropped.Inc()
	}
}

// nativeEvents returns a received batch's valid events. When localRange is
// non-nil the fan-out loop-safety rules apply: events stamped with the
// local Range (echoes) or with no Range stamp at all (indistinguishable
// from local production) are dropped and counted in echoes; invalid events
// are dropped uncounted, so malformed events never read as routing loops. The batch is shared — the
// memory transport may hand one pointer to several local receivers, and
// relay re-sends it — so it is never written: when nothing is dropped, the
// common case, the result is b.Events itself, a read-only view; otherwise
// it is a copy made from the first dropped event onward.
//
//lint:hotpath
func nativeEvents(b *wire.NativeBatch, localRange guid.GUID) (events []event.Event, echoes int) {
	all := b.Events
	//lint:allow hotpath ValidateBatch formats an error only for an invalid event, which then takes the filtering branch
	cut, _ := event.ValidateBatch(all)
	for i := range all[:cut] {
		if isEcho(&all[i], localRange) {
			cut = i
			break
		}
	}
	if cut == len(all) {
		return all, 0
	}
	//lint:allow hotpath filtering branch: a batch with an event to drop needs its own slice; a clean batch takes none
	return dropFrom(all, cut, localRange)
}

// isEcho reports whether ingest must drop e under the loop-safety rules
// (never with a nil localRange).
func isEcho(e *event.Event, localRange guid.GUID) bool {
	return !localRange.IsNil() && (e.Range.IsNil() || e.Range == localRange)
}

// dropFrom is nativeEvents' filtering branch: all[:cut] is kept as is and
// all[cut] is the first event to drop.
func dropFrom(all []event.Event, cut int, localRange guid.GUID) (events []event.Event, echoes int) {
	events = make([]event.Event, cut, len(all)-1)
	copy(events, all[:cut])
	for rest := all[cut:]; len(rest) > 0; {
		n, err := event.ValidateBatch(rest)
		for i := range rest[:n] {
			if isEcho(&rest[i], localRange) {
				echoes++
				continue
			}
			events = append(events, rest[i])
		}
		if err == nil {
			break
		}
		rest = rest[n+1:] // skip the invalid event
	}
	return events, echoes
}

// keepMatching returns the events some filter accepts, in order: events
// itself when every event matches, otherwise a copy made from the first
// unmatched event onward. Like nativeEvents it never writes events.
func keepMatching(events []event.Event, filters []event.Filter, reg *ctxtype.Registry) []event.Event {
	var keep []event.Event
	copied := false
	for i := range events {
		match := matchesSome(filters, &events[i], reg)
		switch {
		case match && copied:
			keep = append(keep, events[i])
		case !match && !copied:
			copied = true
			keep = append(keep, events[:i]...)
		}
	}
	if !copied {
		return events
	}
	return keep
}

// matchesSome reports whether any filter accepts e.
func matchesSome(filters []event.Filter, e *event.Event, reg *ctxtype.Registry) bool {
	for i := range filters {
		if filters[i].MatchesIn(e, reg) {
			return true
		}
	}
	return false
}

// markSeen records a batch id in the bounded duplicate window, reporting
// whether it was new.
func (f *Fabric) markSeen(id guid.GUID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen.Has(id) {
		return false
	}
	f.seen.Add(id)
	if len(f.seenRing) < seenWindow {
		f.seenRing = append(f.seenRing, id)
		return true
	}
	f.seen.Remove(f.seenRing[f.seenPos])
	f.seenRing[f.seenPos] = id
	f.seenPos = (f.seenPos + 1) % seenWindow
	return true
}

// relay re-forwards an ingested batch to next hops outside its hop set —
// interested peers the origin did not know, and in hierarchy mode the
// links whose digest admits the batch (up toward the parent, down into
// matching subtrees, across to matching peer super-peers) — extending the
// hop set with every new recipient. events are the batch's valid events,
// matched against peers' filters. The relayed copies share one new batch
// that keeps the received batch's events, origin and id under the extended
// hop set; the received batch itself is shared and never edited. It
// returns the number of next hops taken (zero means the batch terminated
// here).
func (f *Fabric) relay(in *wire.NativeBatch, events []event.Event) int {
	via := guid.NewSet(in.Via...)
	via.Add(in.Origin)
	via.Add(f.node.ID())
	// Matching runs against the lock-free snapshots, same as fanOut: relays
	// sit on the ingest path and must not serialize behind f.mu.
	extra := f.forwardTargets(events, via)
	if len(extra) == 0 {
		return 0
	}
	for _, id := range extra {
		via.Add(id)
	}
	// The id is preserved, so receivers can dedup relayed copies.
	out := &wire.NativeBatch{Events: in.Events, Origin: in.Origin, ID: in.ID, Via: via.Members()}
	// Forwarding honors this fabric's own credit state: while the fan-out
	// penalty is engaged, relayed batches queue into a bounded drop-oldest
	// backlog per peer instead of amplifying the origin's burst at line
	// rate into receivers already reporting collapse.
	for _, to := range extra {
		f.relayTo(to, out)
	}
	return len(extra)
}

// matchAny reports whether any filter accepts any event, using the Range's
// type registry for semantic equivalence.
func matchAny(filters []event.Filter, events []event.Event, rng *server.Range) bool {
	reg := rng.Types()
	for j := range events {
		if matchesSome(filters, &events[j], reg) {
			return true
		}
	}
	return false
}

// maxRelayBacklog bounds how many relayed batches wait toward one
// throttled peer before the oldest are shed.
const maxRelayBacklog = 64

// relayDrainDelay is the pacing interval for a throttled relay backlog:
// BatchMaxDelay stretched by the fan coalescer's penalty, mirroring how the
// fabric's own production is paced while peer credit is collapsed. It also
// reports whether that penalty is engaged.
func (f *Fabric) relayDrainDelay() (delay time.Duration, throttled bool) {
	if p := f.fan.Penalty(); p > 1 {
		return time.Duration(float64(f.maxDelay) * p), true
	}
	return f.maxDelay, false
}

// relayTo forwards one relayed batch toward a peer: at line rate while
// forwarding is unthrottled and nothing is queued (the historical path),
// otherwise through the link's relay backlog. Relayed batches are queued
// whole, header and all — re-coalescing their events would mint new batch
// ids and defeat the receivers' duplicate suppression — drained in FIFO
// order on a penalty-stretched timer, and shed oldest-first beyond
// maxRelayBacklog, so a throttled relay stops amplifying load into an
// already-collapsed receiver.
func (f *Fabric) relayTo(to guid.GUID, batch *wire.NativeBatch) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(to)
	f.mu.Unlock()
	delay, throttled := f.relayDrainDelay()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	// While a backlog (or pending drain) exists, enqueue behind it to keep
	// per-peer FIFO order.
	if !throttled && len(l.relayPending) == 0 && l.relayTimer == nil {
		l.mu.Unlock()
		f.sendRelayed(to, batch)
		return
	}
	defer l.mu.Unlock()
	l.relayPending = append(l.relayPending, batch)
	if over := len(l.relayPending) - maxRelayBacklog; over > 0 {
		l.relayPending = append(l.relayPending[:0], l.relayPending[over:]...)
		f.BatchesRelayShed.Add(uint64(over))
	}
	if l.relayTimer == nil {
		l.relayTimer = f.clk.AfterFunc(delay, func() { f.drainRelay(l) })
	}
}

// drainRelay ships a link's relay backlog and re-arms while more arrives.
// The backlog bound caps each drain at maxRelayBacklog batches per
// stretched interval — the rate a collapsed receiver sees in place of
// line-rate amplification.
func (f *Fabric) drainRelay(l *link) {
	l.mu.Lock()
	l.relayTimer = nil
	pending := l.relayPending
	l.relayPending = nil
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return
	}
	for _, batch := range pending {
		f.sendRelayed(l.id, batch)
	}
	delay, _ := f.relayDrainDelay()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed && len(l.relayPending) > 0 && l.relayTimer == nil {
		l.relayTimer = f.clk.AfterFunc(delay, func() { f.drainRelay(l) })
	}
}

// sendRelayed puts one relayed batch on the wire toward a peer, counting
// it as relayed or, when the transport refuses it, its events as forward
// failures.
func (f *Fabric) sendRelayed(to guid.GUID, batch *wire.NativeBatch) {
	if f.node.Send(to, appEventBatch, nil, batch) != nil {
		f.ForwardFailures.Add(uint64(len(batch.Events)))
		return
	}
	f.BatchesRelayed.Inc()
	f.noteSubtreeForward(to)
}
