package flow

import (
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/metrics"
	"sync"
)

// maxPenalty bounds the credit-collapse flush-rate penalty (and with it the
// stretched timer delay, at maxPenalty × MaxDelay).
const maxPenalty = 16

// penaltyDecay is the per-healthy-report multiplicative decay of the
// penalty back towards 1.
const penaltyDecay = 0.75

// throttleBufferFactor bounds how many events a throttled Coalescer buffers
// (factor × MaxBatch) before shedding the oldest.
const throttleBufferFactor = 64

// SharedStats is an optional sink several Coalescers report into — one per
// Range, surfaced as its remote.backpressure.* gauges. The zero value is
// ready to use; pass the same pointer to every Coalescer of one owner.
type SharedStats struct {
	// Flushes counts flush passes (timer, size or explicit) that shipped at
	// least one event; under backpressure this rate falls.
	Flushes metrics.Counter
	// DropsReported totals receiver-reported drop deltas from credit
	// updates.
	DropsReported metrics.Counter
	// ThrottleEvents counts penalty raises (credit collapses observed).
	ThrottleEvents metrics.Counter
	// Throttled gauges how many Coalescers currently hold a penalty above
	// one.
	Throttled metrics.Gauge
	// Shed charges every event dropped sender-side, because a throttled
	// queue exceeded its buffer bound, to the source it belonged to, so a
	// throttled Range can report which tenant's backlog is being cut.
	Shed metrics.Ledger
}

// shedEach charges a shed stretch to each event's own Source, one ledger
// add per run of same-Source events.
func shedEach(l *metrics.Ledger, events []event.Event) {
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Source == events[i].Source {
			j++
		}
		l.Add(events[i].Source, uint64(j-i))
		i = j
	}
}

// Config parameterises a Coalescer. Clock, MaxBatch (≥1), MaxDelay and
// Send are required.
type Config struct {
	// Clock schedules the delay-flush timers (injected for deterministic
	// tests).
	Clock clock.Clock
	// MaxBatch is the batch-size ceiling: no Send call receives more
	// events.
	MaxBatch int
	// MaxDelay is the flush-deadline ceiling for a partial batch.
	MaxDelay time.Duration
	// Send ships one bounded chunk. It is called outside the queue lock,
	// serialised with other flushes of this Coalescer, and must not call
	// back into the Coalescer. The callee may keep the chunk without
	// copying it: the Coalescer never writes a region it has passed to
	// Send — the held-back tail starts past it, later adds append behind
	// that tail, and a throttled shed compacts only the pending events.
	// The callee must not write the chunk either.
	Send func(batch []event.Event)
	// Fair optionally drains per-source sub-queues by weighted deficit
	// round robin instead of one global FIFO.
	Fair Fair
	// Stats is an optional shared sink for flush/backpressure accounting.
	Stats *SharedStats
}

// Coalescer collects events for one destination and ships them as bounded
// batches. Construct with New; safe for concurrent use.
type Coalescer struct {
	cfg Config

	// sendMu serialises flushes: a timer flush and a size flush may race,
	// and sending outside the extraction lock without ordering them could
	// deliver batches out of per-producer order.
	//
	//lint:lockorder flow.Coalescer.sendMu < flow.Coalescer.mu doFlush extracts under mu while holding the flush serialisation lock
	sendMu sync.Mutex

	mu      sync.Mutex
	pending []event.Event // guarded by mu
	timer   clock.Timer   // guarded by mu; armed while a partial batch waits for the delay
	dead    bool          // guarded by mu

	// Weighted-fair state (replaces pending when cfg.Fair.Enabled).
	subs  map[guid.GUID]*subQueue // guarded by mu
	ring  []guid.GUID             // guarded by mu; backlogged sources in DRR order
	total int                     // guarded by mu; events across all sub-queues

	// Backpressure state.
	penalty     float64 // guarded by mu; flush-rate penalty; 1 = none
	lastDropped uint64  // guarded by mu; last cumulative receiver drop report
	creditSeen  bool    // guarded by mu; a credit report has established the baseline
}

// New builds a Coalescer. MaxBatch below 1 is raised to 1.
func New(cfg Config) *Coalescer {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	return &Coalescer{cfg: cfg, penalty: 1}
}

// Add appends one event, flushing when the pending run reaches MaxBatch
// and otherwise arming the delay timer so a partial batch never waits
// longer than MaxDelay (stretched by the backpressure penalty while credit
// is collapsed).
func (c *Coalescer) Add(e event.Event) {
	if c.cfg.Fair.Enabled {
		c.addFair(func() { c.enqueueFairLocked(e) })
		return
	}
	//lint:allow guardedby the append closure runs under mu inside add
	c.add(func() { c.pending = append(c.pending, e) })
}

// AddAll appends a whole run under one lock acquisition — the batch-fed
// edge from Mediator.SubscribeBatch. The events are copied out of the
// delivered slice, which may be a run shared with other subscribers.
func (c *Coalescer) AddAll(events []event.Event) {
	if len(events) == 0 {
		return
	}
	if c.cfg.Fair.Enabled {
		c.addFair(func() { c.enqueueFairRunsLocked(events) })
		return
	}
	//lint:allow guardedby the append closure runs under mu inside add
	c.add(func() { c.pending = append(c.pending, events...) })
}

func (c *Coalescer) add(app func()) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	app()
	full := false
	if c.penalty > 1 {
		// Throttled: no size flushes — the timer paces shipments at the
		// penalty-stretched delay; sustained overload is shed oldest-first
		// so the buffer stays bounded.
		if limit := c.cfg.MaxBatch * throttleBufferFactor; len(c.pending) > limit {
			shed := len(c.pending) - limit
			if c.cfg.Stats != nil {
				shedEach(&c.cfg.Stats.Shed, c.pending[:shed])
			}
			c.pending = append(c.pending[:0], c.pending[shed:]...)
		}
	} else {
		full = len(c.pending) >= c.cfg.MaxBatch
	}
	if !full && c.timer == nil {
		c.timer = c.cfg.Clock.AfterFunc(c.flushDelayLocked(), c.Flush)
	}
	c.mu.Unlock()
	if full {
		c.doFlush(false)
	}
}

// flushDelayLocked returns the delay to the next timer flush: MaxDelay
// stretched by the backpressure penalty. Called under mu.
func (c *Coalescer) flushDelayLocked() time.Duration {
	return time.Duration(float64(c.cfg.MaxDelay) * c.penalty)
}

// Flush ships everything pending, partial tail included (the delay-timer
// and close path).
func (c *Coalescer) Flush() { c.doFlush(true) }

// doFlush ships pending events in chunks of at most MaxBatch. A
// size-triggered flush (all=false) ships only whole MaxBatch chunks and
// holds the partial tail back for the delay timer, so N events cost
// ⌈N/MaxBatch⌉ sends however the producer's bursts were sliced.
//
//lint:hotpath
func (c *Coalescer) doFlush(all bool) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	chunk := c.cfg.MaxBatch
	var send []event.Event
	if c.cfg.Fair.Enabled {
		cut := c.total
		if !all {
			cut -= cut % chunk
		}
		//lint:allow hotpath fair mode ships an owned slice once per flush, amortised across the batch
		send = c.extractFairLocked(cut)
	} else {
		batch := c.pending
		cut := len(batch)
		if !all {
			cut -= cut % chunk
		}
		// The held-back tail keeps its position: later adds append behind it
		// in the same backing array, never overlapping the chunk being sent.
		c.pending = batch[cut:]
		send = batch[:cut]
	}
	rest := c.pendingLocked()
	if c.timer != nil && rest == 0 {
		c.timer.Stop()
		c.timer = nil
	}
	if rest > 0 && c.timer == nil && !c.dead {
		//lint:allow hotpath timer re-arm happens once per held-back tail, not per event
		c.timer = c.cfg.Clock.AfterFunc(c.flushDelayLocked(), c.Flush)
	}
	c.mu.Unlock()
	if len(send) > 0 && c.cfg.Stats != nil {
		c.cfg.Stats.Flushes.Inc()
	}
	for len(send) > 0 {
		n := len(send)
		if n > chunk {
			n = chunk
		}
		c.cfg.Send(send[:n])
		send = send[n:]
	}
}

// Discard drops pending events, disarms the timer and refuses further adds
// (the destination departed, or its owner is closing after a final Flush).
func (c *Coalescer) Discard() {
	c.mu.Lock()
	c.dead = true
	c.pending = nil
	c.subs = nil
	c.ring = nil
	c.total = 0
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	wasThrottled := c.penalty > 1
	c.penalty = 1
	c.mu.Unlock()
	if wasThrottled && c.cfg.Stats != nil {
		c.cfg.Stats.Throttled.Add(-1)
	}
}

// UpdateCredit ingests one receiver credit report: the receiver's
// cumulative drop count and its remaining queue capacity (negative =
// unknown). The first report establishes the drop baseline; later reports
// feed the delta to NoteCredit. A report below the baseline means the
// receiver restarted (its counter reset to zero, possibly under a reused
// GUID): the baseline is reset to the regressed value rather than held, so
// the very next genuine drop is detected instead of drop detection freezing
// until the fresh counter re-passes the stale high-water mark. The
// regressing report itself carries no delta — a restart is not congestion.
func (c *Coalescer) UpdateCredit(dropped uint64, queueFree int) {
	c.mu.Lock()
	var delta uint64
	if c.creditSeen && dropped >= c.lastDropped {
		delta = dropped - c.lastDropped
	}
	c.creditSeen = true
	c.lastDropped = dropped
	c.mu.Unlock()
	c.NoteCredit(delta, queueFree)
}

// NoteCredit applies one receiver health signal: fresh drops double the
// flush-rate penalty; a healthy report decays it towards one. A full queue
// without drops (queueFree == 0) is neutral — the receiver is saturated
// but keeping up, so the penalty neither rises nor decays; punishing a
// transiently full queue would throttle healthy endpoints. Callers that
// multiplex one Coalescer across receivers (the fan-out queue) compute
// per-receiver drop deltas themselves and feed them here.
func (c *Coalescer) NoteCredit(dropDelta uint64, queueFree int) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	was := c.penalty > 1
	bad := dropDelta > 0
	if bad {
		c.penalty *= 2
		if c.penalty > maxPenalty {
			c.penalty = maxPenalty
		}
	} else if c.penalty > 1 && queueFree != 0 {
		c.penalty *= penaltyDecay
		if c.penalty < 1.05 {
			c.penalty = 1
		}
	}
	now := c.penalty > 1
	c.mu.Unlock()
	if c.cfg.Stats != nil {
		if bad {
			c.cfg.Stats.ThrottleEvents.Inc()
			if dropDelta > 0 {
				c.cfg.Stats.DropsReported.Add(dropDelta)
			}
		}
		if now && !was {
			c.cfg.Stats.Throttled.Add(1)
		} else if was && !now {
			c.cfg.Stats.Throttled.Add(-1)
		}
	}
}

// pendingLocked reports how many events await a flush, whichever queue
// shape is in use. Called under mu.
func (c *Coalescer) pendingLocked() int {
	if c.cfg.Fair.Enabled {
		return c.total
	}
	return len(c.pending)
}

// PendingLen reports how many events await a flush (tests, diagnostics).
func (c *Coalescer) PendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingLocked()
}

// Penalty reports the current flush-rate penalty (1 = none; above 1, credit
// collapse suppresses size flushes).
func (c *Coalescer) Penalty() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.penalty
}
