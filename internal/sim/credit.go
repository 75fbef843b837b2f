package sim

// Multi-hop overload. A three-fabric chain — origin A, relay B, sink C,
// where A never learned C's interest and relies on B's relay — is driven
// into relay-side overload: C's consumer collapses, C's acks to B report
// the drops B's traffic caused (per-publisher attribution), B folds them
// into the DownstreamBy accounts of its acks to A, and A — two hops from
// the congestion — throttles at the source. A second phase measures the
// ack economy of a hot bidirectional wire link: credit reports ride the
// opposing event.batch traffic instead of paying standalone
// event.batch_ack frames.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
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

// e13Result is the multi-hop overload experiment's outcome.
type e13Result struct {
	// healthyFlushPerSec / overloadFlushPerSec are the ORIGIN's fan-out
	// flush rates with a healthy chain and with the sink collapsed two
	// hops downstream; collapse is their ratio.
	healthyFlushPerSec  float64
	overloadFlushPerSec float64
	collapse            float64
	// originThrottled reports whether the origin's fan coalescer was
	// throttled at the end of the overload window.
	originThrottled bool
	// relayDownstream is the relay's accumulated downstream-drop counter —
	// the congestion it propagated upstream.
	relayDownstream uint64
	// sinkDropsFromRelay is the sink Range's dispatch-drop count attributed
	// to the relay's traffic (per-publisher attribution at the sink).
	sinkDropsFromRelay uint64
	// fleetRelayDrops is the relay's eventbus.dropped.from.<relay> gauge in
	// the FleetDispatchStats rollup.
	fleetRelayDrops float64

	// Ack-economy phase (hot bidirectional Range-Service link).
	batchesEachWay  uint64 // event.batch messages, both directions summed
	standaloneAcks  uint64 // standalone event.batch_ack frames actually paid
	piggybackedAcks uint64 // credit reports that rode reverse batches
	// ackRatio is standaloneAcks per batch; one standalone ack per batch,
	// the cost before credit rode reverse traffic, is 1.
	ackRatio float64
}

// e13Chain is the three-fabric A→B→C rig.
type e13Chain struct {
	net     *transport.Memory
	ranges  []*server.Range
	fabrics []*scinet.Fabric

	src       guid.GUID
	seq       atomic.Uint64
	sinkSleep atomic.Int64 // per-event handler delay at the sink, ns
}

func newE13Chain(batch int, maxDelay time.Duration) (*e13Chain, error) {
	ch := &e13Chain{
		net: transport.NewMemory(transport.MemoryConfig{}),
		src: guid.New(guid.KindDevice),
	}
	for i := 0; i < 3; i++ {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("e13-r%d", i),
			Coverage:       location.Path(fmt.Sprintf("campus/e13-r%d", i)),
			BatchMaxEvents: batch,
			BatchMaxDelay:  maxDelay,
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
		func(event.Event) {}); err != nil {
		ch.close()
		return nil, err
	}
	// Sink consumer: speed governed by sinkSleep.
	if _, err := ch.fabrics[2].SubscribeRemote(guid.New(guid.KindApplication), flt,
		func(event.Event) {
			if d := ch.sinkSleep.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}); err != nil {
		ch.close()
		return nil, err
	}

	fA, fB, fC := ch.fabrics[0], ch.fabrics[1], ch.fabrics[2]
	if err := waitUntil(5*time.Second, "e13: gossip settled (origin knows the relay's interest, the relay the sink's)", func() bool {
		return len(fA.Interests()[fB.NodeID()]) > 0 && len(fB.Interests()[fC.NodeID()]) > 0
	}); err != nil {
		ch.close()
		return nil, err
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

// runE13 drives the three-fabric chain through a healthy and an
// overloaded window, then measures the ack economy of a hot bidirectional
// link. Bars: the origin's flush rate collapses at least 10× and it ends
// throttled, the relay propagates and the sink attributes the drops, and
// standalone acks cost at most 0.55 per batch.
func runE13(Scale, int64) ([]Table, error) {
	const batch, maxDelay = 64, 5 * time.Millisecond
	r, err := e13Run(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	tables := []Table{{
		Title: "3-hop chain: relay-side overload throttles the origin",
		Header: []string{"batch", "healthy flush/s", "overload flush/s", "collapse",
			"origin throttled", "relay downstream", "sink drops (from relay)", "fleet drop gauge (relay)"},
		Rows: [][]string{{
			fmt.Sprint(batch), fmt.Sprintf("%.0f", r.healthyFlushPerSec), fmt.Sprintf("%.0f", r.overloadFlushPerSec),
			fmt.Sprintf("%.1f×", r.collapse), fmt.Sprint(r.originThrottled), fmt.Sprint(r.relayDownstream),
			fmt.Sprint(r.sinkDropsFromRelay), fmt.Sprintf("%.0f", r.fleetRelayDrops),
		}},
	}, {
		Title:  "ack economy: hot bidirectional link, credit rides reverse batches",
		Header: []string{"batches (both ways)", "standalone acks", "piggybacked", "acks/batch (≤0.55)"},
		Rows: [][]string{{
			fmt.Sprint(r.batchesEachWay), fmt.Sprint(r.standaloneAcks), fmt.Sprint(r.piggybackedAcks), fmt.Sprintf("%.2f", r.ackRatio),
		}},
	}}
	errs := []error{
		bar(r.healthyFlushPerSec > 0, "e13: healthy window measured no origin flushes"),
		bar(r.batchesEachWay > 0, "e13: ack phase shipped no batches"),
	}
	// The timing bars hold on real builds only. Under -race the CPU-bound
	// decode at the relay slows 10-20×, its unbounded transport inbox
	// buffers the backlog instead of any ring overflowing, and the sink's
	// slow consumer never becomes the contention point: no drops, no credit,
	// no collapse. Slowed handlers also overflow the duplex link's delivery
	// queue, and genuine drops rightly make every credit report urgent. The
	// scinet chain suite and rangesvc's piggyback tests cover both
	// mechanisms deterministically under -race.
	if !raceEnabled {
		errs = append(errs,
			bar(r.collapse >= 10, "e13: origin flush-rate collapse %.1f× (healthy %.0f → overload %.0f), want ≥ 10×",
				r.collapse, r.healthyFlushPerSec, r.overloadFlushPerSec),
			bar(r.originThrottled, "e13: origin not throttled at the end of the overload window"),
			bar(r.relayDownstream > 0, "e13: relay accumulated no downstream drops"),
			bar(r.sinkDropsFromRelay > 0, "e13: sink attributed no drops to the relay's traffic"),
			bar(r.fleetRelayDrops > 0, "e13: the relay's drop gauge is missing or zero in the fleet rollup"),
			bar(r.piggybackedAcks > 0, "e13: hot bidirectional link piggybacked no credit"),
			bar(r.ackRatio <= 0.55, "e13: %.2f standalone acks per batch, want ≤ 0.55", r.ackRatio))
	}
	return tables, errors.Join(errs...)
}

// e13Run measures both chain windows, then the ack economy.
func e13Run(batch int, maxDelay time.Duration) (*e13Result, error) {
	ch, err := newE13Chain(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	defer ch.close()
	fA, fB := ch.fabrics[0], ch.fabrics[1]

	const window = 1500 * time.Millisecond
	res := &e13Result{}
	res.healthyFlushPerSec = ch.pace(batch, window)

	// Collapse the sink: its consumer burns 20ms per event, so the relay's
	// inflow overruns it however hard A throttles — sustained drops,
	// attributed to the relay, propagated to the origin. The first ~150ms
	// are the control loop's onset (the sink's ring fills, the first
	// credit round trip crosses two hops, the penalty ramps), so the
	// overload figure is measured steady-state after an unmeasured onset
	// window under identical pacing.
	ch.sinkSleep.Store(int64(20 * time.Millisecond))
	ch.pace(batch, 300*time.Millisecond)
	res.overloadFlushPerSec = ch.pace(batch, window)
	if res.overloadFlushPerSec > 0 {
		res.collapse = res.healthyFlushPerSec / res.overloadFlushPerSec
	}
	res.originThrottled = ch.ranges[0].FlowStats().Throttled.Value() > 0
	res.relayDownstream = fB.DownstreamDrops()
	res.sinkDropsFromRelay = ch.ranges[2].Drops().For(fB.NodeID())

	// The relay's per-publisher drop gauge in the fleet rollup.
	if fleet, err := fA.FleetDispatchStats(2 * time.Second); err == nil {
		res.fleetRelayDrops = fleet.Totals[server.LossKey("eventbus.dropped", fB.NodeID())]
	}

	if err := e13AckEconomy(batch, maxDelay, res); err != nil {
		return nil, err
	}
	return res, nil
}

// e13AckEconomy runs a hot bidirectional Range-Service link — the host
// floods deliveries to a batch connector that is simultaneously publishing
// its own batches — and records in res how credit travelled.
func e13AckEconomy(batch int, maxDelay time.Duration, res *e13Result) error {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	rng := server.New(server.Config{
		Name:           "e13-duplex",
		Coverage:       location.Path("campus/e13-duplex"),
		BatchMaxEvents: batch,
		BatchMaxDelay:  maxDelay,
	})
	defer rng.Close()
	host, err := rangesvc.NewHost(rng, net, nil)
	if err != nil {
		return err
	}
	defer host.Close()
	thermo := sensor.NewTemperatureSensor("e13-probe", location.Ref{}, 294, 2, 1, nil)
	if err := rng.AddEntity(thermo); err != nil {
		return err
	}

	conn, err := rangesvc.NewBatchConnector(guid.New(guid.KindApplication), "duplex", net,
		func([]event.Event) {}, nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Register(rng.ServerID(), profile.Profile{}, true); err != nil {
		return err
	}
	conn.SetDeliveryQueueCap(1 << 16)
	q := query.New(conn.ID(), query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := conn.Submit(q); err != nil {
		return err
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
			return err
		}
		if err := conn.PublishAll(up); err != nil {
			return err
		}
		published++
		time.Sleep(time.Millisecond)
	}
	// Let the tail of deliveries and acks drain.
	time.Sleep(50 * time.Millisecond)

	res.batchesEachWay = rng.RemoteBatchesSent.Value() + published
	res.standaloneAcks = host.AcksSent.Value() + conn.AcksSent()
	res.piggybackedAcks = host.AcksPiggybacked.Value() + conn.AcksPiggybacked()
	if res.batchesEachWay > 0 {
		res.ackRatio = float64(res.standaloneAcks) / float64(res.batchesEachWay)
	}
	return nil
}
