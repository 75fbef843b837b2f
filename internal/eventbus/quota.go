package eventbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/guid"
)

// Quota configures per-publisher admission control: a token bucket per
// publishing source, applied before any dispatch work. Events are admitted
// while the publisher's bucket has tokens (one token per event); the bucket
// refills continuously at Rate tokens per second up to Burst. An over-quota
// publish either sheds the excess (counted, default) or fails the whole
// call with an *OverQuotaError, per Reject.
type Quota struct {
	// Rate is the sustained admission rate in events per second per
	// publisher. A Rate <= 0 disables admission control.
	Rate float64
	// Burst is the bucket depth: the largest instantaneous backlog one
	// publisher may admit ahead of its sustained rate. Defaults to one
	// second's worth of Rate (minimum 1).
	Burst int
	// Reject selects all-or-nothing admission: an over-quota batch is
	// refused in full with an *OverQuotaError instead of being clipped to
	// the available tokens with the excess shed-and-counted.
	Reject bool
	// Clock supplies refill time; defaults to the system clock.
	Clock clock.Clock
}

// ErrOverQuota is the sentinel matched by errors.Is for publishes refused by
// admission control in Reject mode.
var ErrOverQuota = errors.New("eventbus: publisher over quota")

// OverQuotaError reports a publish refused by per-publisher admission
// control. It unwraps to ErrOverQuota.
type OverQuotaError struct {
	// Publisher is the source the refused events were charged against.
	Publisher guid.GUID
	// Rejected is the number of events refused by this call.
	Rejected int
}

func (e *OverQuotaError) Error() string {
	return fmt.Sprintf("eventbus: publisher %s over quota (%d events rejected)", e.Publisher.Short(), e.Rejected)
}

func (e *OverQuotaError) Unwrap() error { return ErrOverQuota }

// WithQuota enables per-publisher admission control on the bus.
func WithQuota(q Quota) Option {
	return func(b *Bus) {
		if q.Rate <= 0 {
			return
		}
		if q.Burst <= 0 {
			q.Burst = int(q.Rate)
			if q.Burst < 1 {
				q.Burst = 1
			}
		}
		if q.Clock == nil {
			q.Clock = clock.Real()
		}
		b.quota = &q
	}
}

// maxQuotaSources bounds each stripe's per-publisher bucket table; an
// overflowing population (adversarial source churn) shares the nil-GUID
// bucket so the table cannot grow without bound. A variable, not a constant,
// so the bounding test can lower it.
var maxQuotaSources = 4096

// quotaBucket is one publisher's token bucket plus its rejected-event
// counter. Buckets live in a per-stripe copy-on-write table mirroring the
// drop-attribution table: the steady-state lookup is a lock-free pointer
// load and map probe; only the first publish from a new source takes the
// stripe's install lock.
type quotaBucket struct {
	mu       sync.Mutex
	inited   bool
	tokens   float64
	last     time.Time
	rejected atomic.Uint64
}

// admit refills the bucket to now and grants up to n tokens. In all-or-
// nothing mode (all=true) it grants either n or 0 and consumes nothing on
// refusal; otherwise it grants whatever the bucket holds.
func (qb *quotaBucket) admit(n int, now time.Time, rate float64, burst int, all bool) int {
	qb.mu.Lock()
	defer qb.mu.Unlock()
	if !qb.inited {
		qb.inited = true
		qb.tokens = float64(burst)
		qb.last = now
	} else if dt := now.Sub(qb.last).Seconds(); dt > 0 {
		qb.tokens += dt * rate
		if qb.tokens > float64(burst) {
			qb.tokens = float64(burst)
		}
		qb.last = now
	}
	grant := n
	if float64(grant) > qb.tokens {
		if all {
			return 0
		}
		grant = int(qb.tokens)
	}
	qb.tokens -= float64(grant)
	return grant
}

// refund returns n tokens granted by admit, up to burst: an all-or-nothing
// batch refused after some of its runs were granted gives them back.
func (qb *quotaBucket) refund(n, burst int) {
	qb.mu.Lock()
	qb.tokens = min(qb.tokens+float64(n), float64(burst))
	qb.mu.Unlock()
}

// srcQuotaTable is an immutable snapshot of a stripe's per-publisher
// buckets; the buckets themselves are shared across snapshots.
type srcQuotaTable struct {
	buckets map[guid.GUID]*quotaBucket
}

// quotaBucketFor returns the stripe's bucket for one publisher, installing
// it on first use (beyond maxQuotaSources, the shared nil-GUID overflow
// bucket). The fast path is lock-free; installs take quotaMu, a leaf lock.
func (sh *shard) quotaBucketFor(src guid.GUID) *quotaBucket {
	if t := sh.quotaTab.Load(); t != nil {
		if qb, ok := t.buckets[src]; ok {
			return qb
		}
	}
	sh.quotaMu.Lock()
	defer sh.quotaMu.Unlock()
	var old map[guid.GUID]*quotaBucket
	if t := sh.quotaTab.Load(); t != nil {
		if qb, ok := t.buckets[src]; ok {
			return qb // lost the install race
		}
		old = t.buckets
	}
	key := src
	if len(old) >= maxQuotaSources {
		if qb, ok := old[guid.Nil]; ok {
			return qb
		}
		key = guid.Nil // overflow bucket
	}
	nm := make(map[guid.GUID]*quotaBucket, len(old)+1)
	for k, v := range old {
		nm[k] = v
	}
	qb := &quotaBucket{}
	nm[key] = qb
	sh.quotaTab.Store(&srcQuotaTable{buckets: nm})
	return qb
}

// admitOne is the single-event admission check for Publish: the event is
// charged against its own Source. It reports whether the event may be
// dispatched; a refusal has already been counted, and err is non-nil only
// in Reject mode.
func (b *Bus) admitOne(e event.Event) (bool, error) {
	q := b.quota
	qb := b.idShard(e.Source).quotaBucketFor(e.Source)
	if qb.admit(1, q.Clock.Now(), q.Rate, q.Burst, q.Reject) == 1 {
		return true, nil
	}
	qb.rejected.Add(1)
	b.quotaRejected.Add(1)
	if q.Reject {
		return false, &OverQuotaError{Publisher: e.Source, Rejected: 1}
	}
	return false, nil
}

// admitBatch applies admission control to a validated batch. When pub is
// non-nil the whole batch is charged against pub; otherwise each run of
// consecutive same-Source events is charged against that source. The
// returned slice (which may alias events) holds the admitted subset in
// order; refused events have been counted. In Reject mode a shortfall fails
// the call and spends no tokens: the whole call is counted as refused, each
// event against the publisher it was charged to.
func (b *Bus) admitBatch(pub guid.GUID, events []event.Event) ([]event.Event, error) {
	q := b.quota
	now := q.Clock.Now()
	if !pub.IsNil() {
		qb := b.idShard(pub).quotaBucketFor(pub)
		grant := qb.admit(len(events), now, q.Rate, q.Burst, q.Reject)
		if grant == len(events) {
			return events, nil
		}
		rej := len(events) - grant
		qb.rejected.Add(uint64(rej))
		b.quotaRejected.Add(uint64(rej))
		if q.Reject {
			return nil, &OverQuotaError{Publisher: pub, Rejected: rej}
		}
		return events[:grant], nil
	}

	// Per-source charging: walk runs of consecutive same-Source events,
	// building a filtered slice only once something is refused.
	var out []event.Event
	shed := false
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Source == events[i].Source {
			j++
		}
		run := events[i:j]
		src := run[0].Source
		qb := b.idShard(src).quotaBucketFor(src)
		grant := qb.admit(len(run), now, q.Rate, q.Burst, q.Reject)
		if rej := len(run) - grant; rej > 0 {
			if q.Reject {
				b.refuseBySource(events, i)
				return nil, &OverQuotaError{Publisher: src, Rejected: len(events)}
			}
			qb.rejected.Add(uint64(rej))
			b.quotaRejected.Add(uint64(rej))
			if !shed {
				shed = true
				out = append(out, events[:i]...)
			}
		}
		if shed && grant > 0 {
			out = append(out, run[:grant]...)
		}
		i = j
	}
	if !shed {
		return events, nil
	}
	return out, nil
}

// refuseBySource undoes a per-source batch admission that a run at offset
// short ran out of tokens for: the runs before it get their grants back,
// and every event of the batch is counted as refused against its own Source.
func (b *Bus) refuseBySource(events []event.Event, short int) {
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Source == events[i].Source {
			j++
		}
		src := events[i].Source
		qb := b.idShard(src).quotaBucketFor(src)
		if i < short {
			qb.refund(j-i, b.quota.Burst)
		}
		qb.rejected.Add(uint64(j - i))
		i = j
	}
	b.quotaRejected.Add(uint64(len(events)))
}

// QuotaRejectedFor returns the cumulative count of events refused by
// admission control charged against the given publisher. Publishers never
// refused read 0.
func (b *Bus) QuotaRejectedFor(pub guid.GUID) uint64 {
	var total uint64
	for _, sh := range b.shards {
		if t := sh.quotaTab.Load(); t != nil {
			if qb, ok := t.buckets[pub]; ok {
				total += qb.rejected.Load()
			}
		}
	}
	return total
}

// QuotaRejectedBySource returns a merged snapshot of per-publisher
// quota-refusal counts across all stripes. The nil-GUID key, when present,
// is the overflow bucket of publishers beyond the per-stripe tracking
// bound. Publishers tracked but never refused are omitted.
func (b *Bus) QuotaRejectedBySource() map[guid.GUID]uint64 {
	out := make(map[guid.GUID]uint64)
	for _, sh := range b.shards {
		if t := sh.quotaTab.Load(); t != nil {
			for src, qb := range t.buckets {
				if n := qb.rejected.Load(); n > 0 {
					out[src] += n
				}
			}
		}
	}
	return out
}
