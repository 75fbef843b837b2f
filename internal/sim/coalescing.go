package sim

// Hot vs idle endpoints: one Range Service delivers to a flooded remote
// application and a trickle-fed one, each behind its own outbound
// coalescer, under static and adaptive coalescing; a final phase overloads
// the receiver and measures the flush-rate throttling its credit acks buy.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/metrics"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/rangesvc"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// e12Rig is one Range Service plus a hot and an idle remote application.
type e12Rig struct {
	net  *transport.Memory
	rng  *server.Range
	host *rangesvc.Host

	thermo *sensor.TemperatureSensor
	door   *sensor.DoorSensor

	hot          *rangesvc.Connector
	hotDelivered atomic.Int64
	hotSleep     atomic.Int64 // per-event handler delay, ns (overload phase)

	idle          *rangesvc.Connector
	idleDelivered atomic.Int64
	idleLatency   metrics.Histogram
}

func newE12Rig(name string, batch int, maxDelay time.Duration, adaptive bool) (*e12Rig, error) {
	rig := &e12Rig{net: transport.NewMemory(transport.MemoryConfig{})}
	rig.rng = server.New(server.Config{
		Name:             name,
		Coverage:         location.Path("campus/" + name),
		BatchMaxEvents:   batch,
		BatchMaxDelay:    maxDelay,
		AdaptiveBatching: flow.Adaptive{Enabled: adaptive},
	})
	host, err := rangesvc.NewHost(rig.rng, rig.net, nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.host = host

	rig.thermo = sensor.NewTemperatureSensor(name+"-probe", location.Ref{}, 294, 2, 1, nil)
	if err := rig.rng.AddEntity(rig.thermo); err != nil {
		rig.close()
		return nil, err
	}
	rig.door = sensor.NewDoorSensor(name+"-door", location.Ref{}, nil)
	if err := rig.rng.AddEntity(rig.door); err != nil {
		rig.close()
		return nil, err
	}

	connect := func(label string, onEvent func(event.Event)) (*rangesvc.Connector, error) {
		c, err := rangesvc.NewConnector(guid.New(guid.KindApplication), label, rig.net, onEvent, nil)
		if err != nil {
			return nil, err
		}
		if err := c.Register(rig.rng.ServerID(), profile.Profile{}, true); err != nil {
			_ = c.Close()
			return nil, err
		}
		return c, nil
	}
	rig.hot, err = connect(name+"-hot", func(event.Event) {
		if d := rig.hotSleep.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		rig.hotDelivered.Add(1)
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.idle, err = connect(name+"-idle", func(e event.Event) {
		rig.idleLatency.RecordDuration(time.Since(e.Time))
		rig.idleDelivered.Add(1)
	})
	if err != nil {
		rig.close()
		return nil, err
	}

	hotQ := query.New(rig.hot.ID(), query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := rig.hot.Submit(hotQ); err != nil {
		rig.close()
		return nil, err
	}
	idleQ := query.New(rig.idle.ID(), query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeSubscribe)
	if _, err := rig.idle.Submit(idleQ); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rig *e12Rig) close() {
	// Host first: its Close flushes pending coalescers, which must happen
	// while the connector endpoints are still attached.
	if rig.host != nil {
		_ = rig.host.Close()
	}
	if rig.hot != nil {
		_ = rig.hot.Close()
	}
	if rig.idle != nil {
		_ = rig.idle.Close()
	}
	if rig.rng != nil {
		rig.rng.Close()
	}
	_ = rig.net.Close()
}

// floodHot publishes n temperature events addressed to the hot endpoint's
// configuration, pacing on aggregate lag so delivery rings never overflow,
// and returns when every one has been delivered remotely.
func (rig *e12Rig) floodHot(n, chunk int) error {
	src := rig.thermo.ID()
	start := rig.hotDelivered.Load()
	buf := make([]event.Event, 0, chunk)
	now := time.Now()
	for i := 0; i < n; i++ {
		buf = append(buf, event.New(ctxtype.TemperatureKelvin, src, uint64(i+1), now,
			map[string]any{"value": 294.0, "unit": "kelvin"}))
		if len(buf) == chunk || i == n-1 {
			if err := rig.rng.PublishAll(buf); err != nil {
				return err
			}
			buf = buf[:0]
			// The root subscription ring holds 1024 events: bounding the
			// publisher's lead below it keeps freshest-wins drops out of a
			// throughput measurement.
			for int64(i+1)-(rig.hotDelivered.Load()-start) > 768 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	return waitUntil(30*time.Second, fmt.Sprintf("e12: %d hot events delivered", n),
		func() bool { return rig.hotDelivered.Load()-start >= int64(n) })
}

// runE12 measures static and adaptive coalescing, then the overload phase.
// Bars: the adaptive idle endpoint's p50 stays below the static
// BatchMaxDelay (its effective batch sits at the floor), and receiver
// overload throttles the sender's flush rate.
func runE12(s Scale, _ int64) ([]Table, error) {
	hotEvents := pick(s, 1500, 20000, 200000)
	batch := pick(s, 16, 64, 64)
	maxDelay := pick(s, 2*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond)
	modes := Table{
		Title:  "hot vs idle endpoints under static and adaptive coalescing",
		Header: []string{"mode", "batch", "hot events", "hot events/s", "events/msg", "idle p50", "idle p99"},
	}
	var adaptiveP50 time.Duration
	for _, mode := range []string{"static", "adaptive"} {
		row, idleP50, err := e12Mode(mode, hotEvents, batch, maxDelay)
		if err != nil {
			return nil, err
		}
		modes.Rows = append(modes.Rows, row)
		if mode == "adaptive" {
			adaptiveP50 = idleP50
		}
	}
	bp, err := e12Overload(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	overload := Table{
		Title:  "receiver overload throttles the sender's flush rate",
		Header: []string{"healthy flush/s", "overload flush/s", "throttle events", "drops reported", "events shed", "throttled"},
		Rows: [][]string{{
			fmt.Sprintf("%.0f", bp.healthyFlushPerSec), fmt.Sprintf("%.0f", bp.overloadFlushPerSec),
			fmt.Sprint(bp.throttleEvents), fmt.Sprint(bp.dropsReported), fmt.Sprint(bp.eventsShed), fmt.Sprint(bp.throttled),
		}},
	}
	return []Table{modes, overload}, errors.Join(
		bar(adaptiveP50 < maxDelay, "e12: adaptive idle p50 = %v, want below the %v static BatchMaxDelay", adaptiveP50, maxDelay),
		bar(bp.throttleEvents > 0 && bp.dropsReported > 0, "e12: overload induced no throttling: %+v", *bp),
		bar(bp.overloadFlushPerSec < bp.healthyFlushPerSec, "e12: throttling did not reduce the flush rate: healthy %.0f → overload %.0f",
			bp.healthyFlushPerSec, bp.overloadFlushPerSec))
}

// e12Mode runs one coalescing mode on a fresh rig: an idle trickle of door
// sightings, each waiting for its delivery so that every one meets an empty
// coalescer, then the hot flood. It returns the table row and the idle p50.
func e12Mode(mode string, hotEvents, batch int, maxDelay time.Duration) ([]string, time.Duration, error) {
	const idleEvents = 40
	rig, err := newE12Rig("e12-"+mode, batch, maxDelay, mode == "adaptive")
	if err != nil {
		return nil, 0, err
	}
	defer rig.close()
	badge := guid.New(guid.KindPerson)
	for i := 1; i <= idleEvents; i++ {
		if err := rig.door.Sight(badge, location.PlaceID("lobby")); err != nil {
			return nil, 0, err
		}
		if err := waitUntil(30*time.Second, fmt.Sprintf("e12: %s idle delivery %d", mode, i),
			func() bool { return rig.idleDelivered.Load() >= int64(i) }); err != nil {
			return nil, 0, err
		}
	}
	startMsgs := rig.rng.RemoteBatchesSent.Value()
	startEvents := rig.rng.RemoteEventsSent.Value()
	start := time.Now()
	if err := rig.floodHot(hotEvents, batch); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start).Seconds()

	// The hot flood dominates the coalescing ratio across both endpoints.
	var perMsg float64
	if msgs := rig.rng.RemoteBatchesSent.Value() - startMsgs; msgs > 0 {
		perMsg = float64(rig.rng.RemoteEventsSent.Value()-startEvents) / float64(msgs)
	}
	lat := rig.idleLatency.Snapshot()
	return []string{mode, fmt.Sprint(batch), fmt.Sprint(hotEvents), fmt.Sprintf("%.0f", float64(hotEvents)/elapsed),
		fmt.Sprintf("%.1f", perMsg), us(time.Duration(lat.P50)), us(time.Duration(lat.P99))}, time.Duration(lat.P50), nil
}

// pacedFlood publishes batch-sized chunks of hot events at a steady pace
// for the given window and returns the sender's flush rate over it.
func (rig *e12Rig) pacedFlood(batch int, window time.Duration) (flushPerSec float64, err error) {
	stats := rig.rng.FlowStats()
	pre := stats.Flushes.Value()
	src := rig.thermo.ID()
	buf := make([]event.Event, 0, batch)
	now := time.Now()
	deadline := now.Add(window)
	var seq uint64
	for time.Now().Before(deadline) {
		buf = buf[:0]
		for i := 0; i < batch; i++ {
			seq++
			buf = append(buf, event.New(ctxtype.TemperatureKelvin, src, seq, now,
				map[string]any{"value": 294.0, "unit": "kelvin"}))
		}
		if err := rig.rng.PublishAll(buf); err != nil {
			return 0, err
		}
		time.Sleep(500 * time.Microsecond)
	}
	return float64(stats.Flushes.Value()-pre) / window.Seconds(), nil
}

// e12Backpressure is the overload phase: the sender's flush rates with a
// healthy receiver and with one whose credit collapsed, then the Range's
// remote.backpressure.* figures and whether the endpoint ended throttled.
type e12Backpressure struct {
	healthyFlushPerSec, overloadFlushPerSec   float64
	throttleEvents, dropsReported, eventsShed uint64
	throttled                                 bool
}

// e12Overload runs the same paced hot flood twice under adaptive
// coalescing: once against a healthy receiver, once with the receiver
// slowed and its delivery queue shrunk so overflow drops collapse the
// acked credit. Identical pacing makes the two flush rates directly
// comparable.
func e12Overload(batch int, maxDelay time.Duration) (*e12Backpressure, error) {
	rig, err := newE12Rig("e12-bp", batch, maxDelay, true)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	stats := rig.rng.FlowStats()
	const window = 1500 * time.Millisecond

	// Healthy window: size flushes follow the publish pacing. A deep
	// delivery queue keeps transient bursts from reading as overload.
	rig.hot.SetDeliveryQueueCap(1 << 16)
	healthyRate, err := rig.pacedFlood(batch, window)
	if err != nil {
		return nil, err
	}

	// Overload window: the receiver burns time per event behind a small
	// queue, so its acks report drops and the coalescer paces itself on
	// the penalty-stretched timer (deliveries lag far behind, which is
	// the point).
	rig.hotSleep.Store(int64(500 * time.Microsecond))
	rig.hot.SetDeliveryQueueCap(batch)
	overloadRate, err := rig.pacedFlood(batch, window)
	if err != nil {
		return nil, err
	}

	return &e12Backpressure{
		healthyFlushPerSec:  healthyRate,
		overloadFlushPerSec: overloadRate,
		throttleEvents:      stats.ThrottleEvents.Value(),
		dropsReported:       stats.DropsReported.Value(),
		eventsShed:          stats.EventsShed.Value(),
		throttled:           stats.Throttled.Value() > 0,
	}, nil
}
