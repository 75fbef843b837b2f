package sim

// Receiver overload: one Range Service delivers a paced flood to a remote
// application through the endpoint's outbound coalescer, first to a healthy
// receiver, then to one whose delivery queue overflows; the credit its acks
// carry must throttle the sender's flush rate.

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
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// e12Rig is one Range Service plus a hot remote application.
type e12Rig struct {
	net  *transport.Memory
	rng  *server.Range
	host *rangesvc.Host

	thermo *sensor.TemperatureSensor

	hot      *rangesvc.Connector
	hotSleep atomic.Int64 // per-event handler delay, ns (overload window)
}

func newE12Rig(name string, batch int, maxDelay time.Duration) (*e12Rig, error) {
	rig := &e12Rig{net: transport.NewMemory(transport.MemoryConfig{})}
	rig.rng = server.New(server.Config{
		Name:           name,
		Coverage:       location.Path("campus/" + name),
		BatchMaxEvents: batch,
		BatchMaxDelay:  maxDelay,
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

	rig.hot, err = rangesvc.NewConnector(guid.New(guid.KindApplication), name+"-hot", rig.net, func(event.Event) {
		if d := rig.hotSleep.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}, nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	if err := rig.hot.Register(rig.rng.ServerID(), profile.Profile{}, true); err != nil {
		rig.close()
		return nil, err
	}
	hotQ := query.New(rig.hot.ID(), query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := rig.hot.Submit(hotQ); err != nil {
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
	if rig.rng != nil {
		rig.rng.Close()
	}
	_ = rig.net.Close()
}

// runE12 runs the overload phase. Bars: receiver overload throttles the
// sender (throttle events and reported drops), and the throttle cuts the
// flush rate below the healthy one.
func runE12(s Scale, _ int64) ([]Table, error) {
	batch := pick(s, 16, 64, 64)
	maxDelay := pick(s, 2*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond)
	bp, err := e12Overload(batch, maxDelay)
	if err != nil {
		return nil, err
	}
	overload := Table{
		Title:  "receiver overload throttles the sender's flush rate",
		Header: []string{"batch", "healthy flush/s", "overload flush/s", "throttle events", "drops reported", "events shed", "throttled"},
		Rows: [][]string{{
			fmt.Sprint(batch), fmt.Sprintf("%.0f", bp.healthyFlushPerSec), fmt.Sprintf("%.0f", bp.overloadFlushPerSec),
			fmt.Sprint(bp.throttleEvents), fmt.Sprint(bp.dropsReported), fmt.Sprint(bp.eventsShed), fmt.Sprint(bp.throttled),
		}},
	}
	return []Table{overload}, errors.Join(
		bar(bp.throttleEvents > 0 && bp.dropsReported > 0, "e12: overload induced no throttling: %+v", *bp),
		bar(bp.overloadFlushPerSec < bp.healthyFlushPerSec, "e12: throttling did not reduce the flush rate: healthy %.0f → overload %.0f",
			bp.healthyFlushPerSec, bp.overloadFlushPerSec))
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

// e12Overload runs the same paced hot flood twice: once against a healthy
// receiver, once with the receiver slowed and its delivery queue shrunk so
// overflow drops collapse the acked credit. Identical pacing makes the two
// flush rates directly comparable.
func e12Overload(batch int, maxDelay time.Duration) (*e12Backpressure, error) {
	rig, err := newE12Rig("e12-bp", batch, maxDelay)
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
		eventsShed:          stats.Shed.Total(),
		throttled:           stats.Throttled.Value() > 0,
	}, nil
}
