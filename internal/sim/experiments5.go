package sim

// E13 (ISSUE 5): multi-hop overload. A three-fabric chain — origin A,
// relay B, sink C, where A never learned C's interest and relies on B's
// relay — is driven into relay-side overload: C's consumer collapses, C's
// acks to B report the drops B's traffic caused (per-publisher
// attribution), B folds them into the DownstreamBy accounts of its acks to
// A, and A — two hops from the congestion — throttles at the source. A
// second phase measures the ack economy of a hot bidirectional wire link:
// credit reports ride the opposing event.batch traffic instead of paying
// standalone event.batch_ack frames.

import (
	"fmt"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/rangesvc"
	"sci/internal/scinet"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// E13Result reports the multi-hop overload experiment.
type E13Result struct {
	// Batch is the BatchMaxEvents ceiling the chain ran with.
	Batch int
	// HealthyFlushPerSec / OverloadFlushPerSec are the ORIGIN's fan-out
	// flush rates with a healthy chain and with the sink collapsed two
	// hops downstream; Collapse is their ratio.
	HealthyFlushPerSec  float64
	OverloadFlushPerSec float64
	Collapse            float64
	// OriginThrottled reports whether the origin's fan coalescer was
	// throttled at the end of the overload window.
	OriginThrottled bool
	// RelayDownstream is the relay's accumulated downstream-drop counter —
	// the congestion it propagated upstream.
	RelayDownstream uint64
	// SinkDropsFromRelay is the sink Range's dispatch-drop count attributed
	// to the relay's traffic (per-publisher attribution at the sink).
	SinkDropsFromRelay uint64
	// FleetDropGauges counts the per-publisher drop gauges visible in the
	// FleetDispatchStats rollup; FleetDropTotal sums them.
	FleetDropGauges int
	FleetDropTotal  float64

	// Ack-economy phase (hot bidirectional Range-Service link).
	BatchesEachWay  uint64 // event.batch messages, both directions summed
	StandaloneAcks  uint64 // standalone event.batch_ack frames actually paid
	PiggybackedAcks uint64 // credit reports that rode reverse batches
	// AckRatioVsPR4 is StandaloneAcks over the PR 4 cost (one standalone
	// ack per batch): the acceptance bar is ≤ 0.55.
	AckRatioVsPR4 float64
}

// e13Chain is the three-fabric A→B→C rig.
type e13Chain struct {
	net     *transport.Memory
	ranges  []*server.Range
	fabrics []*scinet.Fabric

	src       guid.GUID
	seq       atomic.Uint64
	sinkSleep atomic.Int64 // per-event handler delay at the sink, ns
	sinkSeen  atomic.Int64
	relaySeen atomic.Int64
}

func newE13Chain(batch int, maxDelay time.Duration) (*e13Chain, error) {
	ch := &e13Chain{
		net: transport.NewMemory(transport.MemoryConfig{}),
		src: guid.New(guid.KindDevice),
	}
	for i := 0; i < 3; i++ {
		rng := server.New(server.Config{
			Name:             fmt.Sprintf("e13-r%d", i),
			Coverage:         location.Path(fmt.Sprintf("campus/e13-r%d", i)),
			BatchMaxEvents:   batch,
			BatchMaxDelay:    maxDelay,
			AdaptiveBatching: flow.Adaptive{Enabled: true},
		})
		f, err := scinet.NewFabric(rng, ch.net, nil)
		if err != nil {
			ch.close()
			return nil, err
		}
		if i > 0 {
			if err := f.Join(ch.fabrics[0].NodeID()); err != nil {
				ch.close()
				return nil, err
			}
		}
		ch.ranges = append(ch.ranges, rng)
		ch.fabrics = append(ch.fabrics, f)
	}

	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	// Relay consumer: fast.
	if _, err := ch.fabrics[1].SubscribeRemote(guid.New(guid.KindApplication), flt,
		func(event.Event) { ch.relaySeen.Add(1) }); err != nil {
		ch.close()
		return nil, err
	}
	// Sink consumer: speed governed by sinkSleep.
	if _, err := ch.fabrics[2].SubscribeRemote(guid.New(guid.KindApplication), flt,
		func(event.Event) {
			if d := ch.sinkSleep.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			ch.sinkSeen.Add(1)
		}); err != nil {
		ch.close()
		return nil, err
	}

	fA, fB, fC := ch.fabrics[0], ch.fabrics[1], ch.fabrics[2]
	// Wait until gossip settles: A knows B's interest, B knows C's.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		aKnowsB := len(fA.Interests()[fB.NodeID()]) > 0
		bKnowsC := len(fB.Interests()[fC.NodeID()]) > 0
		if aKnowsB && bKnowsC {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Partial knowledge: A never learned of C. Re-gossiped records may be
	// in flight, so prune until the entry stays gone.
	for settled := 0; settled < 25; {
		if fA.ForgetInterest(fC.NodeID()) {
			settled = 0
		} else {
			settled++
		}
		time.Sleep(time.Millisecond)
	}
	return ch, nil
}

func (ch *e13Chain) close() {
	// The sink must not drain its backlog at the overload pace during
	// teardown.
	ch.sinkSleep.Store(0)
	for _, f := range ch.fabrics {
		_ = f.Close()
	}
	for _, r := range ch.ranges {
		r.Close()
	}
	_ = ch.net.Close()
}

// pace publishes batch-sized chunks at the origin at a steady rate for the
// window and returns the origin's flush rate over it.
func (ch *e13Chain) pace(batch int, window time.Duration) float64 {
	stats := ch.ranges[0].FlowStats()
	pre := stats.Flushes.Value()
	buf := make([]event.Event, 0, batch)
	now := time.Now()
	deadline := now.Add(window)
	for time.Now().Before(deadline) {
		buf = buf[:0]
		for i := 0; i < batch; i++ {
			buf = append(buf, event.New(ctxtype.TemperatureCelsius, ch.src, ch.seq.Add(1), now,
				map[string]any{"value": 294.0}))
		}
		if err := ch.ranges[0].PublishAll(buf); err != nil {
			return 0
		}
		time.Sleep(500 * time.Microsecond)
	}
	return float64(stats.Flushes.Value()-pre) / window.Seconds()
}

// RunE13 drives the three-fabric chain through a healthy and an overloaded
// window, then measures the ack economy of a hot bidirectional link.
func RunE13(batch int, maxDelay time.Duration) (*E13Result, error) {
	if batch < 1 {
		batch = 1
	}
	ch, err := newE13Chain(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	defer ch.close()
	fA, fB, fC := ch.fabrics[0], ch.fabrics[1], ch.fabrics[2]

	const window = 1500 * time.Millisecond
	res := &E13Result{Batch: batch}
	res.HealthyFlushPerSec = ch.pace(batch, window)

	// Collapse the sink: its consumer burns 20ms per event, so the relay's
	// inflow overruns it however hard A throttles — sustained drops,
	// attributed to the relay, propagated to the origin. The first ~150ms
	// are the control loop's onset (the sink's ring fills, the first
	// credit round trip crosses two hops, the penalty ramps), so the
	// overload figure is measured steady-state after an unmeasured onset
	// window under identical pacing.
	ch.sinkSleep.Store(int64(20 * time.Millisecond))
	ch.pace(batch, 300*time.Millisecond)
	res.OverloadFlushPerSec = ch.pace(batch, window)
	if res.OverloadFlushPerSec > 0 {
		res.Collapse = res.HealthyFlushPerSec / res.OverloadFlushPerSec
	}
	res.OriginThrottled = ch.ranges[0].FlowStats().Throttled.Value() > 0
	res.RelayDownstream = fB.DownstreamDrops()
	res.SinkDropsFromRelay = ch.ranges[2].DispatchDropsFor(fB.NodeID())

	// Per-publisher drop gauges in the fleet rollup.
	if fleet, err := fA.FleetDispatchStats(2 * time.Second); err == nil {
		for k, v := range fleet.Totals {
			if len(k) > 13 && k[:13] == "dropped_from_" {
				res.FleetDropGauges++
				res.FleetDropTotal += v
			}
		}
	}
	_ = fC

	ackStats, err := runE13AckEconomy(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	res.BatchesEachWay = ackStats.batches
	res.StandaloneAcks = ackStats.standalone
	res.PiggybackedAcks = ackStats.piggybacked
	if ackStats.batches > 0 {
		res.AckRatioVsPR4 = float64(ackStats.standalone) / float64(ackStats.batches)
	}
	return res, nil
}

type e13AckStats struct {
	batches     uint64
	standalone  uint64
	piggybacked uint64
}

// runE13AckEconomy runs a hot bidirectional Range-Service link — the host
// floods deliveries to a batch connector that is simultaneously publishing
// its own batches — and counts how credit travelled. PR 4 paid one
// standalone event.batch_ack per received batch in each direction.
func runE13AckEconomy(batch int, maxDelay time.Duration) (*e13AckStats, error) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	rng := server.New(server.Config{
		Name:             "e13-duplex",
		Coverage:         location.Path("campus/e13-duplex"),
		BatchMaxEvents:   batch,
		BatchMaxDelay:    maxDelay,
		AdaptiveBatching: flow.Adaptive{Enabled: true},
	})
	defer rng.Close()
	host, err := rangesvc.NewHost(rng, net, nil)
	if err != nil {
		return nil, err
	}
	defer host.Close()
	thermo := sensor.NewTemperatureSensor("e13-probe", location.Ref{}, 294, 2, 1, nil)
	if err := rng.AddEntity(thermo); err != nil {
		return nil, err
	}

	var received atomic.Int64
	conn, err := rangesvc.NewBatchConnector(guid.New(guid.KindApplication), "duplex", net,
		func(events []event.Event) { received.Add(int64(len(events))) }, nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Register(rng.ServerID(), profile.Profile{}, true); err != nil {
		return nil, err
	}
	conn.EnableAdaptiveQueue(64, 1<<16, 0)
	q := query.New(conn.ID(), query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := conn.Submit(q); err != nil {
		return nil, err
	}

	// Hot both ways for one second: the Range floods temperature batches at
	// the connector while the connector publishes sighting batches back.
	src := thermo.ID()
	var seq uint64
	var published uint64
	deadline := time.Now().Add(time.Second)
	down := make([]event.Event, 0, batch)
	up := make([]event.Event, 0, batch)
	for time.Now().Before(deadline) {
		now := time.Now()
		down = down[:0]
		up = up[:0]
		for i := 0; i < batch; i++ {
			seq++
			down = append(down, event.New(ctxtype.TemperatureKelvin, src, seq, now,
				map[string]any{"value": 294.0, "unit": "kelvin"}))
			up = append(up, event.New(ctxtype.LocationSightingDoor, conn.ID(), seq, now,
				map[string]any{"place": "lobby"}))
		}
		if err := rng.PublishAll(down); err != nil {
			return nil, err
		}
		if err := conn.PublishAll(up); err != nil {
			return nil, err
		}
		published++
		time.Sleep(time.Millisecond)
	}
	// Let the tail of deliveries and acks drain.
	time.Sleep(50 * time.Millisecond)

	return &e13AckStats{
		batches:     rng.RemoteBatchesSent.Value() + published,
		standalone:  host.AcksSent.Value() + conn.AcksSent(),
		piggybacked: host.AcksPiggybacked.Value() + conn.AcksPiggybacked(),
	}, nil
}

// E13Table formats the chain phase.
func E13Table(r *E13Result) Table {
	return Table{
		Title: "E13 (ISSUE 5): 3-hop chain, relay-side overload throttles the origin",
		Header: []string{"batch", "healthy flush/s", "overload flush/s", "collapse",
			"origin throttled", "relay downstream", "sink drops (from relay)", "fleet drop gauges"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.0f", r.HealthyFlushPerSec),
			fmt.Sprintf("%.0f", r.OverloadFlushPerSec),
			fmt.Sprintf("%.1f×", r.Collapse),
			fmt.Sprintf("%v", r.OriginThrottled),
			fmt.Sprintf("%d", r.RelayDownstream),
			fmt.Sprintf("%d", r.SinkDropsFromRelay),
			fmt.Sprintf("%d (Σ %.0f)", r.FleetDropGauges, r.FleetDropTotal),
		}},
	}
}

// E13AckTable formats the ack-economy phase.
func E13AckTable(r *E13Result) Table {
	return Table{
		Title:  "E13 ack economy: hot bidirectional link, credit rides reverse batches",
		Header: []string{"batches (both ways)", "standalone acks", "piggybacked", "acks vs PR4 (≤0.55)"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.BatchesEachWay),
			fmt.Sprintf("%d", r.StandaloneAcks),
			fmt.Sprintf("%d", r.PiggybackedAcks),
			fmt.Sprintf("%.2f", r.AckRatioVsPR4),
		}},
	}
}
