// Package flow is the unified outbound flow-control layer: one Coalescer
// implementation shared by every component that turns a stream of events
// into bounded batches on a wire — the Range Service's per-endpoint
// delivery queues and the SCINET fabric's per-peer and fan-out queues were
// parallel copies of this algorithm before it was extracted here.
//
// # Coalescer contract
//
// A Coalescer collects events for one destination and ships them through
// the configured Send function in chunks never exceeding the effective
// batch size. Its obligations, in order of importance:
//
//   - Flush ordering: flushes are serialised (a send mutex taken before the
//     extraction lock), so batches leave in the order their events arrived;
//     a timer flush racing a size flush can never reorder them. Events
//     added while a flush is in flight leave in the next one.
//
//   - Partial-tail holdback: a size-triggered flush ships only whole
//     multiples of the effective batch size — in chunks never exceeding
//     the MaxBatch ceiling — and holds the remainder back for the delay
//     timer. A steady stream therefore costs exactly ⌈N/effectiveBatch⌉
//     Send calls however the producer's bursts were sliced, and a burst
//     never costs more than one Send per MaxBatch events. Flush (the
//     timer and close path) ships everything, tail included.
//
//   - Bounded latency: a partial batch never waits longer than the
//     effective delay; the timer is armed whenever events are pending and
//     disarmed when the queue empties.
//
//   - Close-flush: Flush followed by Discard ships every pending event
//     exactly once and then refuses further adds with all timers disarmed.
//     Discard alone (destination departed) drops pending events.
//
// # Adaptive bounds
//
// With Adaptive.Enabled, an EWMA arrival-rate tracker (fed by the injected
// clock, so tests drive it deterministically) derives the effective batch
// size and flush delay between the configured floors (Adaptive.MinBatch,
// Adaptive.MinDelay) and ceilings (Config.MaxBatch, Config.MaxDelay): the
// effective batch approximates the arrivals expected within one MaxDelay
// window. An idle destination therefore sits at the floor — a lone event
// triggers an immediate size flush instead of waiting out MaxDelay — while
// a hot one rides full ceiling-sized batches. Disabled, the effective
// bounds equal the ceilings and the Coalescer behaves exactly like the
// static copies it replaced.
//
// The arrival-rate estimator itself is exported as RateTracker, so bounded
// queues outside this package (the Range Service connector's delivery
// queue) size themselves from the same EWMA signal the Coalescer adapts on
// instead of growing private copies.
//
// # Credit and backpressure
//
// Receivers report flow credit — their cumulative drop count and remaining
// queue capacity — on batch acknowledgements; UpdateCredit ingests one
// report. A collapsing credit (new drops) doubles a flush-rate penalty
// (bounded by maxPenalty); healthy reports decay it, and a full queue
// that is not yet dropping holds it steady.
// While the penalty is above one the Coalescer stops size-flushing and
// paces itself on the timer at penalty × the effective delay, absorbing
// the burst in its pending queue up to a bound (throttleBufferFactor ×
// MaxBatch) beyond which the oldest events are shed (freshest-wins, like
// the delivery rings downstream). Chunks still never exceed the effective
// batch size, so the wire-message budget is preserved; only the flush
// rate falls. Every transition and shed event is reported through the
// optional SharedStats sink, which a Range surfaces as its
// remote.backpressure.* gauges.
//
// # Weighted-fair flushing and publisher quotas
//
// With Fair.Enabled, the pending queue becomes per-source sub-queues keyed
// by Event.Source and every chunk is assembled by deficit round-robin
// across them: each source earns quantum × weight (Fair.Weights, default
// 1) per round and contributes up to its deficit, so a backlogged pair
// with weights 3:1 splits a full chunk 48:16 and a flooding source can
// saturate only its own share of every flush — a paced tenant's events
// ride the next chunk out however deep the flood's backlog is. Order is
// preserved per source (each sub-queue is FIFO) but not across sources;
// consumers needing cross-source ordering already cannot assume it from
// concurrent publishers. The throttle-buffer shed (previous section)
// becomes targeted under Fair: the oldest events of the *deepest*
// sub-queue are shed first, and every shed is attributed to its source
// through SharedStats.ShedBySource — the flooding tenant eats its own
// losses, and the gauges name it. The sub-queue table is bounded
// (maxFairSources); past the bound, newcomers share a nil-GUID overflow
// queue so an adversary minting sources cannot grow it without limit.
//
// Fair scheduling shares the wire once events are admitted; the admission
// edge itself is the event bus's per-publisher token-bucket quota
// (eventbus.Quota, surfaced as server.PublisherQuota): each source earns
// Rate events/s up to a Burst ceiling, charged at PublishAll* before any
// dispatch work, with the caller choosing shed-and-count or a typed
// ErrOverQuota reject. Rejections are counted per source (the
// eventbus.quota.rejected.from.* gauges) by the same attribution
// discipline as drops and sheds. The two layers compose: quotas clip what
// a tenant may offer, weighted-fair flushing divides what the link can
// carry, and both charge the offender — so one hostile publisher can
// neither starve a shared Range at the publish edge nor push a shared
// link's backlog onto its neighbours (experiment E14).
//
// # Attributed and transitive credit
//
// The cumulative drop count a receiver reports is *attributed*: it names
// the drops caused by the reporting link's own traffic (the event bus
// counts every discarded event against its publisher, and receivers ack
// with the sender's per-publisher figure), never the receiving Range's
// global total — so one endpoint's flood cannot throttle an innocent
// neighbour sharing the Range. Credit is also *transitive* across relays:
// a fabric that forwards batches onward folds the congestion it observes
// downstream (the DownstreamBy accounts of its overlay acks, each a monotone
// counter) into the figure it reports upstream, so a multi-hop chain
// throttles at the origin rather than hop by hop. Both counters are
// monotone per reporter; UpdateCredit treats a regression (a report below
// the baseline) as a receiver restart and re-baselines rather than
// freezing drop detection until the fresh counter re-passes the stale
// high-water mark.
//
// The receive side of the loop is AckCoalescer: one per (receiver, peer)
// pair, it coalesces the credit reports owed to that peer. The leading
// report is immediate; reports whose figure moved are rate-limited to one
// per window (cumulative figures mean one frame per window carries
// everything a per-message flood would); no-news reports wait a longer
// idle window, because an all-clear decays the sender's penalty and must
// not outpace the congestion it is meant to confirm gone; and a pending
// report can be claimed (Take) for piggybacking on reverse-direction
// batches (wire.NativeBatch.Credit), sparing the standalone ack frame
// entirely. A relay reporting downstream congestion excludes what it
// learned from the very peer it is acking — echoing a peer's own figure
// back would amplify one finite drop episode around any cycle forever.
package flow
