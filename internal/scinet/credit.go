package scinet

// Flow credit: the acks a receiver sends back for event batches, and the
// downstream accounts that make credit transitive across relays.

import (
	"encoding/json"

	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/overlay"
)

// eventBatchAckMsg is a receiver's flow-credit report for event_batch
// traffic: Dropped is the cumulative count of dispatch drops *attributed to
// the acked sender's traffic* (the bus's per-publisher attribution — never
// the Range-wide total, which would blame one link for another's flood)
// and QueueFree its remaining queue capacity (negative = unknown).
//
// DownstreamBy makes credit transitive across relays: it carries per-origin
// *accounts*, cumulative drop figures keyed by the fabric that observed
// them at its own receivers, merged by max at every hop. Max-merging is
// idempotent, so a figure that travels a cycle — or returns to the fabric
// that first reported it — converges instead of being re-counted as fresh
// congestion on every lap; the sender also excludes accounts keyed by the
// recipient, so nobody is told about its own receivers' drops twice.
// Receivers throttle on Dropped plus the sum of the accounts, which is
// monotone per sender because the excluded key set per recipient is fixed.
// QueryAck marks a cumulative routed-query credit frame that applies to
// every per-(peer, query) coalescer the serving fabric keeps toward the
// sender — all of them track the same per-peer drop figure, so one frame
// per peer per window replaces a frame per result batch; those acks carry
// no downstream accounts at all.
type eventBatchAckMsg struct {
	QueryAck     bool                 `json:"query_ack,omitempty"`
	Events       int                  `json:"events,omitempty"`
	Dropped      uint64               `json:"dropped"`
	DownstreamBy map[guid.GUID]uint64 `json:"downstream_by,omitempty"`
	QueueFree    int                  `json:"queue_free"`
}

// sendAck sends a flow-credit report to the fabric that shipped event
// batches: the cumulative dispatch drops attributed to *that fabric's*
// traffic (its receive health on this link — never the Range-wide total,
// which would blame it for other links' floods) and an unknown queue depth
// — drops, not depth, are the signal a Range can honestly report, since its
// delivery rings are per subscription. A fan-path report also carries the
// congestion this fabric has itself observed downstream of its relays (the
// transitive half); a routed-query report (query) is marked as applying to
// every per-(peer, query) coalescer toward this fabric and carries no
// downstream accounts: results are consumed here, not relayed, and folding
// unrelated fan-out congestion into them would throttle a healthy query
// stream for another link's collapse.
func (f *Fabric) sendAck(to guid.GUID, events int, query bool) error {
	msg := eventBatchAckMsg{
		QueryAck:  query,
		Events:    events,
		Dropped:   f.rng.DispatchDropsFor(to),
		QueueFree: -1,
	}
	if !query {
		msg.DownstreamBy = f.downstreamByFor(to)
	}
	err := f.sendMsg(to, appEventBatchAck, msg)
	if err == nil {
		f.AcksSent.Inc()
	}
	return err
}

// DownstreamDrops reports the congestion this fabric has observed
// downstream of its forwarding: the sum over all per-origin accounts (max
// cumulative drops each observing fabric has reported, directly or via
// relays) — the transitive half of the credit loop that lets a multi-hop
// chain throttle at its origin.
func (f *Fabric) DownstreamDrops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total uint64
	for _, v := range f.downObs {
		total += v
	}
	return total
}

// downstreamByFor snapshots the accounts reported to one peer, excluding
// the account that peer itself observed — telling a fabric about its own
// receivers' drops would double-count them. The excluded key set per
// recipient is fixed and every account is monotone, so the accounts' sum is
// monotone per recipient.
func (f *Fabric) downstreamByFor(peer guid.GUID) map[guid.GUID]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out map[guid.GUID]uint64
	for o, v := range f.downObs {
		if o == peer {
			continue
		}
		if out == nil {
			out = make(map[guid.GUID]uint64, len(f.downObs))
		}
		out[o] = v
	}
	return out
}

// downstreamFor returns just the sum of downstreamByFor's accounts,
// allocation-free — it runs in the ack coalescer's Figure callback on
// every ingested fan-out message.
func (f *Fabric) downstreamFor(peer guid.GUID) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum uint64
	for o, v := range f.downObs {
		if o != peer {
			sum += v
		}
	}
	return sum
}

// noteAck records an owed credit report toward one peer through the link's
// flow.AckCoalescer — one for fan-path batches, one for routed-query
// results (query). The leading report and reports whose figure moved leave
// promptly (one per ack window, the Range's BatchMaxDelay, even under a
// sustained drop storm — the figure is cumulative), while no-news reports
// wait out a fallback stretched past the deepest throttled flush cycle
// (flow's maxPenalty of 16 × the delay ceiling) — an all-clear decays the
// sender's penalty, so answering a relayed burst with per-message "nothing
// new" frames would wind the throttle down between the bursts still
// causing congestion downstream. Every (peer, query) coalescer at the sender tracks the same
// cumulative routed-query figure, so one shared report per peer replaces a
// frame per result batch.
func (f *Fabric) noteAck(to guid.GUID, events int, query bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(to)
	l.mu.Lock()
	slot := &l.fack
	if query {
		slot = &l.qack
	}
	if *slot == nil {
		*slot = flow.NewAckCoalescer(flow.AckConfig{
			Clock:      f.clk,
			Window:     f.maxDelay,
			IdleWindow: f.maxDelay * fanAckIdleFactor,
			Figure:     func() uint64 { return f.ackFigure(to, query) },
			Send:       func(events int) bool { return f.sendAck(to, events, query) == nil },
		})
	}
	a := *slot
	l.mu.Unlock()
	f.mu.Unlock()
	a.Note(events)
}

// ackFigure is the cumulative figure an ack toward peer reports: the drops
// attributed to its traffic, plus (fan path) the downstream accounts.
func (f *Fabric) ackFigure(peer guid.GUID, query bool) uint64 {
	n := f.rng.DispatchDropsFor(peer)
	if !query {
		n += f.downstreamFor(peer)
	}
	return n
}

// fanAckIdleFactor stretches the no-news ack fallback beyond the deepest
// throttled flush cycle; see noteAck.
const fanAckIdleFactor = 20

// handleBatchAck feeds a receiver's credit report into the coalescer that
// serves it: the per-(peer, query) queue for routed-query acks, or the
// shared fan-out queue — via a per-peer baseline, since one coalescer
// multiplexes every interested peer — for fan-out acks. The baseline
// tracks the *combined* figure (the peer's own attributed drops plus the
// congestion it reports from further downstream; both monotone per
// reporter, so their sum is too): a delta from either throttles here, and
// the report's per-origin accounts are folded into this fabric's own
// downstream table so the next ack upstream carries them — a 3-hop
// collapse reaches the origin in two ack round trips. A combined figure
// below the baseline means the peer restarted under a reused GUID; the
// baseline resets so drop detection resumes immediately instead of
// freezing until the fresh counters re-pass the stale high-water mark.
func (f *Fabric) handleBatchAck(d overlay.Delivery) {
	var msg eventBatchAckMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	combined := msg.Dropped
	for _, v := range msg.DownstreamBy {
		combined += v
	}
	if msg.QueryAck {
		// One cumulative routed-query frame credits every coalescer toward
		// that peer: they all track the same per-peer drop figure.
		if l := f.lookupLink(d.Origin); l != nil {
			for _, q := range l.resultQueues() {
				q.UpdateCredit(combined, msg.QueueFree)
			}
		}
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(d.Origin)
	l.mu.Lock()
	last, seen := l.dropBase, l.dropKnown
	l.dropBase, l.dropKnown = combined, true
	l.mu.Unlock()
	var delta uint64
	if seen && combined > last {
		delta = combined - last
	}
	// Fold what this report teaches into the per-origin downstream
	// accounts. The peer's own receive-side figure is authoritative for
	// its account — set outright, so an adjacent restarted peer's reset
	// counter propagates one hop as a regression (which receivers
	// re-baseline on) instead of freezing behind a stale max. Accounts the
	// peer merely relays are merged by max: idempotent, so a figure
	// arriving twice — two relays, a cycle, or our own account echoed back
	// (skipped outright) — converges instead of amplifying. The max-merge
	// does mean a restarted sink's reset account un-freezes only at its
	// direct upstream until the fresh counter re-passes the old maximum;
	// versioned accounts (incarnation numbers) would lift that and are on
	// the roadmap — hop-by-hop credit keeps throttling correctly
	// meanwhile, since every adjacent pair exchanges live Dropped figures.
	if _, ok := f.downObs[d.Origin]; ok || msg.Dropped > 0 {
		f.downObs[d.Origin] = msg.Dropped
	}
	self := f.node.ID()
	for o, v := range msg.DownstreamBy {
		if o == self {
			continue
		}
		if v > f.downObs[o] {
			f.downObs[o] = v
		}
	}
	f.mu.Unlock()
	f.fan.NoteCredit(delta, msg.QueueFree)
}
