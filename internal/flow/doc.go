// Package flow is the unified outbound flow-control layer: one Coalescer
// implementation shared by every component that turns a stream of events
// into bounded batches on a wire — the Range Service's per-endpoint
// delivery queues and the SCINET fabric's per-peer and fan-out queues were
// parallel copies of this algorithm before it was extracted here.
//
// # Coalescer contract
//
// A Coalescer collects events for one destination and ships them through
// the configured Send function in chunks of at most MaxBatch events. It is
// the only way events leave a Range for a remote destination: the Range
// Service's endpoints, the fabric fan-out and routed-query results all
// ride one, with the same static bounds. At MaxBatch 1 every event ships
// as its own batch, synchronously in the adding goroutine while the link
// is healthy, under the same credit throttle and fair shedding as any
// other batch size. Its obligations, in order of importance:
//
//   - Flush ordering: flushes are serialised (a send mutex taken before the
//     extraction lock), so batches leave in the order their events arrived;
//     a timer flush racing a size flush can never reorder them. Events
//     added while a flush is in flight leave in the next one.
//
//   - Partial-tail holdback: a size-triggered flush ships only whole
//     MaxBatch chunks and holds the remainder back for the delay timer.
//     N events therefore cost exactly ⌈N/MaxBatch⌉ Send calls however the
//     producer's bursts were sliced. Flush (the timer and close path)
//     ships everything, tail included.
//
//   - Bounded latency: a partial batch never waits longer than MaxDelay;
//     the timer is armed whenever events are pending and disarmed when the
//     queue empties.
//
//   - Close-flush: Flush followed by Discard ships every pending event
//     exactly once and then refuses further adds with all timers disarmed.
//     Discard alone (destination departed) drops pending events.
//
// # Credit and backpressure
//
// Receivers report flow credit — their cumulative drop count and remaining
// queue capacity — on batch acknowledgements; UpdateCredit ingests one
// report. A collapsing credit (new drops) doubles a flush-rate penalty
// (bounded by maxPenalty); healthy reports decay it, and a full queue
// that is not yet dropping holds it steady. While the penalty is above
// one the Coalescer stops size-flushing and paces itself on the timer at
// penalty × MaxDelay, absorbing the burst in its pending queue up to a
// bound (throttleBufferFactor × MaxBatch) beyond which the oldest events
// are shed (freshest-wins, like the delivery rings downstream). Chunks
// still never exceed MaxBatch, so the wire-message budget is preserved;
// only the flush rate falls. Every transition and shed event is reported
// through the optional SharedStats sink, which a Range surfaces as its
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
// in the SharedStats.Shed ledger — the flooding tenant eats its own
// losses, and the gauges name it. The sub-queue table is bounded
// (guid.TableBound); past the bound, newcomers share a nil-GUID overflow
// queue so an adversary minting sources cannot grow it without limit.
//
// Fair scheduling shares the wire once events are admitted; the admission
// edge itself is the event bus's per-publisher token-bucket quota
// (eventbus.Quota, surfaced as server.PublisherQuota): each source earns
// Rate events/s up to a Burst ceiling, charged at PublishAll* before any
// dispatch work, with the caller choosing shed-and-count or a typed
// ErrOverQuota reject. Rejections are charged per source to the bus's
// quota-reject ledger (the eventbus.quota.rejected.from.* gauges), the
// same metrics.Ledger type that holds drops and sheds. The two layers
// compose: quotas clip what a tenant may offer, weighted-fair flushing
// divides what the link can carry, and both charge the offender — so one
// hostile publisher can neither starve a shared Range at the publish edge
// nor push a shared link's backlog onto its neighbours (experiment E14).
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
// entirely. The Range Service keeps one per remote endpoint, where host and
// connector share one ack path and differ only in the figure; the SCINET
// fabric keeps two per peer link (fan-out and routed-query acks) and never
// piggybacks. A relay reporting downstream congestion excludes what it
// learned from the very peer it is acking — echoing a peer's own figure
// back would amplify one finite drop episode around any cycle forever.
package flow
