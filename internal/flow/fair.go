package flow

import (
	"sci/internal/event"
	"sci/internal/guid"
)

// Fair configures weighted-fair flushing: the Coalescer keeps one sub-queue
// per publishing source (Event.Source) and drains them by deficit round
// robin, so a flooding publisher's backlog cannot starve a paced one of its
// share of every shipped chunk. Shed-oldest evictions under a credit
// throttle come from the deepest backlog — the offender — instead of the
// global head, and are attributed per source through SharedStats.
type Fair struct {
	// Enabled turns per-source sub-queues and DRR draining on. Per-source
	// FIFO order is preserved; global cross-source FIFO order is not.
	Enabled bool
	// Weights sets per-source drain weights (events granted per DRR round).
	// Sources absent from the map weigh 1; values below 1 read as 1.
	Weights map[guid.GUID]int
}

// maxFairSources bounds the per-Coalescer sub-queue table; sources beyond
// the bound share the nil-GUID overflow sub-queue, mirroring the bus's
// drop-attribution and quota tables.
const maxFairSources = 4096

// maxShedSources bounds SharedStats' per-source shed table the same way.
const maxShedSources = 4096

// subQueue is one source's pending events plus its DRR deficit. The deficit
// carries across flushes while the queue stays backlogged, so a source
// clipped mid-round by the chunk boundary catches up next round.
type subQueue struct {
	events  []event.Event
	deficit int
}

// fairKeyLocked maps a source to its sub-queue key, folding new sources
// into the nil-GUID overflow queue once the table is full. Called under mu.
func (c *Coalescer) fairKeyLocked(src guid.GUID) guid.GUID {
	if _, ok := c.subs[src]; ok {
		return src
	}
	if len(c.subs) >= maxFairSources {
		return guid.Nil
	}
	return src
}

// enqueueFairLocked appends one event to its source's sub-queue. Called
// under mu.
func (c *Coalescer) enqueueFairLocked(e event.Event) {
	key := c.fairKeyLocked(e.Source)
	if c.subs == nil {
		c.subs = make(map[guid.GUID]*subQueue)
	}
	q := c.subs[key]
	if q == nil {
		q = &subQueue{}
		c.subs[key] = q
	}
	if len(q.events) == 0 {
		c.ring = append(c.ring, key)
	}
	q.events = append(q.events, e)
	c.total++
}

// enqueueFairRunsLocked appends a batch, walking it in runs of consecutive
// same-Source events so each run costs one map probe. Called under mu.
func (c *Coalescer) enqueueFairRunsLocked(events []event.Event) {
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Source == events[i].Source {
			j++
		}
		key := c.fairKeyLocked(events[i].Source)
		if c.subs == nil {
			c.subs = make(map[guid.GUID]*subQueue)
		}
		q := c.subs[key]
		if q == nil {
			q = &subQueue{}
			c.subs[key] = q
		}
		if len(q.events) == 0 {
			c.ring = append(c.ring, key)
		}
		q.events = append(q.events, events[i:j]...)
		c.total += j - i
		i = j
	}
}

// addFair is add's weighted-fair counterpart: app appends into the
// sub-queues under mu; size flushing and throttle shedding work on the
// cross-source total.
func (c *Coalescer) addFair(app func()) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	app()
	full := false
	if c.penalty > 1 {
		if limit := c.cfg.MaxBatch * throttleBufferFactor; c.total > limit {
			c.shedFairLocked(c.total - limit)
		}
	} else {
		full = c.total >= c.cfg.MaxBatch
	}
	if !full && c.timer == nil {
		c.timer = c.cfg.Clock.AfterFunc(c.flushDelayLocked(), c.Flush)
	}
	c.mu.Unlock()
	if full {
		c.doFlush(false)
	}
}

// shedFairLocked evicts excess events oldest-first from the deepest
// backlog(s): under a throttle the source that overran its share absorbs
// the loss, not whoever happens to sit at a global queue head. Called under
// mu.
func (c *Coalescer) shedFairLocked(excess int) {
	for excess > 0 && c.total > 0 {
		var bigKey guid.GUID
		var big *subQueue
		ringPos := -1
		for i, k := range c.ring {
			q := c.subs[k]
			if big == nil || len(q.events) > len(big.events) {
				big, bigKey, ringPos = q, k, i
			}
		}
		if big == nil {
			return
		}
		n := excess
		if n > len(big.events) {
			n = len(big.events)
		}
		big.events = append(big.events[:0], big.events[n:]...)
		c.total -= n
		excess -= n
		if c.cfg.Stats != nil {
			c.cfg.Stats.noteShed(bigKey, uint64(n))
		}
		if len(big.events) == 0 {
			big.deficit = 0
			c.ring = append(c.ring[:ringPos], c.ring[ringPos+1:]...)
		}
	}
}

// weightLocked returns a source's DRR quantum (minimum 1). Called under mu.
func (c *Coalescer) weightLocked(src guid.GUID) int {
	if w := c.cfg.Fair.Weights[src]; w > 0 {
		return w
	}
	return 1
}

// extractFairLocked removes up to cut events by deficit round robin —
// every backlogged source contributes up to its weight per round, so each
// shipped chunk carries every active source's share in proportion. Sources
// emptied mid-round leave the ring; a source clipped by the cut keeps its
// ring position and accumulated deficit. Called under mu.
func (c *Coalescer) extractFairLocked(cut int) []event.Event {
	if cut <= 0 {
		return nil
	}
	out := make([]event.Event, 0, cut)
	for len(out) < cut && len(c.ring) > 0 {
		live := c.ring[:0]
		for _, k := range c.ring {
			q := c.subs[k]
			if rem := cut - len(out); rem > 0 && len(q.events) > 0 {
				q.deficit += c.weightLocked(k)
				t := q.deficit
				if t > len(q.events) {
					t = len(q.events)
				}
				if t > rem {
					t = rem
				}
				out = append(out, q.events[:t]...)
				n := copy(q.events, q.events[t:])
				for i := n; i < len(q.events); i++ {
					q.events[i] = event.Event{} // release payload references
				}
				q.events = q.events[:n]
				q.deficit -= t
			}
			if len(q.events) == 0 {
				q.deficit = 0
				continue // leaves the ring
			}
			live = append(live, k)
		}
		c.ring = live
	}
	c.total -= len(out)
	return out
}
