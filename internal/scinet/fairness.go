package scinet

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/wire"
)

// ----- interest snapshot -----

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
	snap := make([]interestEntry, 0, len(f.interests))
	for owner, flts := range f.interests {
		if len(flts) == 0 {
			continue
		}
		snap = append(snap, interestEntry{owner: owner, filters: flts})
	}
	sort.Slice(snap, func(i, j int) bool { return guid.Less(snap[i].owner, snap[j].owner) })
	f.interestSnap.Store(&snap)
}

// interestSnapshot returns the current snapshot (never nil after NewFabric).
func (f *Fabric) interestSnapshot() []interestEntry {
	if p := f.interestSnap.Load(); p != nil {
		return *p
	}
	return nil
}

// ----- credit-aware relay shedding -----

// maxRelayBacklog bounds how many relayed batches wait toward one
// throttled peer before the oldest are shed.
const maxRelayBacklog = 64

// relayQueue buffers relayed batches toward one peer while this fabric's
// forwarding is credit-throttled. Relayed batches are queued whole, header
// and all — re-coalescing their events would mint new batch ids and defeat
// the receivers' duplicate suppression — drained in FIFO order on a
// penalty-stretched timer, and shed oldest-first beyond maxRelayBacklog, so
// a throttled relay stops amplifying load into an already-collapsed
// receiver.
type relayQueue struct {
	mu      sync.Mutex
	pending []*wire.NativeBatch
	timer   clock.Timer
	dead    bool
}

func (rq *relayQueue) discard() {
	rq.mu.Lock()
	rq.dead = true
	rq.pending = nil
	if rq.timer != nil {
		rq.timer.Stop()
		rq.timer = nil
	}
	rq.mu.Unlock()
}

// relayQueueFor returns the peer's relay queue, creating it on first use
// (nil once the fabric has closed).
func (f *Fabric) relayQueueFor(to guid.GUID) *relayQueue {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	rq := f.relays[to]
	if rq == nil {
		rq = &relayQueue{}
		f.relays[to] = rq
	}
	return rq
}

// relayDrainDelay is the pacing interval for a throttled relay backlog: the
// flush-delay ceiling stretched by the fan coalescer's penalty, mirroring
// how the fabric's own production is paced while peer credit is collapsed.
func (f *Fabric) relayDrainDelay() time.Duration {
	base := f.maxDelay
	if base <= 0 {
		base = f.ackWindow
	}
	if p := f.fan.Penalty(); p > 1 {
		return time.Duration(float64(base) * p)
	}
	return base
}

// relayTo forwards one relayed batch toward a peer: at line rate while
// forwarding is unthrottled and nothing is queued (the historical path),
// otherwise through the peer's bounded drop-oldest backlog.
func (f *Fabric) relayTo(to guid.GUID, batch *wire.NativeBatch) {
	rq := f.relayQueueFor(to)
	if rq == nil {
		return
	}
	if f.fan.Penalty() <= 1 {
		rq.mu.Lock()
		if !rq.dead && len(rq.pending) == 0 && rq.timer == nil {
			rq.mu.Unlock()
			if f.node.Send(to, appEventBatch, nil, batch) == nil {
				f.BatchesRelayed.Inc()
				f.noteSubtreeForward(to)
			}
			return
		}
		rq.mu.Unlock()
		// A backlog (or pending drain) exists: enqueue behind it to keep
		// per-peer FIFO order.
	}
	rq.mu.Lock()
	if rq.dead {
		rq.mu.Unlock()
		return
	}
	rq.pending = append(rq.pending, batch)
	if over := len(rq.pending) - maxRelayBacklog; over > 0 {
		rq.pending = append(rq.pending[:0], rq.pending[over:]...)
		f.BatchesRelayShed.Add(uint64(over))
	}
	if rq.timer == nil {
		rq.timer = f.clk.AfterFunc(f.relayDrainDelay(), func() { f.drainRelay(to, rq) })
	}
	rq.mu.Unlock()
}

// drainRelay ships the queued backlog toward one peer and re-arms while
// more arrives. The backlog bound caps each drain at maxRelayBacklog
// batches per stretched interval — the rate a collapsed receiver sees in
// place of line-rate amplification.
func (f *Fabric) drainRelay(to guid.GUID, rq *relayQueue) {
	rq.mu.Lock()
	rq.timer = nil
	if rq.dead {
		rq.mu.Unlock()
		return
	}
	pending := rq.pending
	rq.pending = nil
	rq.mu.Unlock()
	for _, batch := range pending {
		if f.node.Send(to, appEventBatch, nil, batch) == nil {
			f.BatchesRelayed.Inc()
			f.noteSubtreeForward(to)
		}
	}
	rq.mu.Lock()
	if !rq.dead && len(rq.pending) > 0 && rq.timer == nil {
		rq.timer = f.clk.AfterFunc(f.relayDrainDelay(), func() { f.drainRelay(to, rq) })
	}
	rq.mu.Unlock()
}

// ----- coalesced routed-query acks -----

// noteQueryAck records an owed routed-query credit report toward one peer.
// Every (peer, query) coalescer at that peer tracks the same cumulative
// figure — the dispatch drops attributed to the peer's traffic here — so
// one shared per-peer AckCoalescer replaces the per-result-batch frames:
// ≤1 cumulative ack frame per peer per ack window however many queries and
// result batches ride the link. Query acks carry no downstream accounts:
// results are consumed here, not relayed, and folding unrelated
// fan-out congestion into them would throttle a healthy query stream for
// another link's collapse.
func (f *Fabric) noteQueryAck(to guid.GUID, events int) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	a := f.qacks[to]
	if a == nil {
		a = flow.NewAckCoalescer(flow.AckConfig{
			Clock:      f.clk,
			Window:     f.ackWindow,
			IdleWindow: f.ackWindow * fanAckIdleFactor,
			Figure:     func() uint64 { return f.rng.DispatchDropsFor(to) },
			Send: func(events int) bool {
				return f.sendQueryAck(to, events) == nil
			},
		})
		f.qacks[to] = a
	}
	f.mu.Unlock()
	a.Note(events)
}

// sendQueryAck sends one cumulative routed-query credit frame: QueryAck
// marks it as applying to every per-(peer, query) coalescer toward this
// fabric at the receiver.
func (f *Fabric) sendQueryAck(to guid.GUID, events int) error {
	msg := eventBatchAckMsg{
		Origin:    f.node.ID(),
		QueryAck:  true,
		Events:    events,
		Dropped:   f.rng.DispatchDropsFor(to),
		QueueFree: -1,
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil // unencodable: dropping the report is all we can do
	}
	err = f.node.Send(to, appEventBatchAck, payload, nil)
	if err == nil {
		f.AcksSent.Inc()
	}
	return err
}
