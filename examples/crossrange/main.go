// Command crossrange demonstrates SCINET cross-range event fan-out: three
// Ranges (a plant floor, a control room and an off-site dashboard) joined
// into one SCINET. Sensors publish on the plant floor; subscribers in the
// other two Ranges receive the readings through coalesced
// scinet.event_batch overlay messages — no per-query proxy, no per-event
// JSON hop — and a fleet-wide dispatch.stats rollup closes the loop.
package main

import (
	"fmt"
	"time"

	"sci"
)

func main() {
	net := sci.NewMemoryNetwork()
	defer net.Close()

	mk := func(name, coverage string) (*sci.Range, *sci.Fabric) {
		rng := sci.NewRange(sci.RangeConfig{
			Name:           name,
			Coverage:       sci.LocationPath(coverage),
			BatchMaxEvents: 16, // coalesce up to 16 remote deliveries per overlay message
			BatchMaxDelay:  2 * time.Millisecond,
		})
		fab, err := sci.NewFabric(rng, net, nil)
		if err != nil {
			panic(err)
		}
		return rng, fab
	}

	floor, floorFab := mk("plant-floor", "plant/floor")
	control, controlFab := mk("control-room", "plant/control")
	dash, dashFab := mk("dashboard", "hq/dashboard")
	defer floor.Close()
	defer control.Close()
	defer dash.Close()
	defer floorFab.Close()
	defer controlFab.Close()
	defer dashFab.Close()

	if err := controlFab.Join(floorFab.NodeID()); err != nil {
		panic(err)
	}
	if err := dashFab.Join(floorFab.NodeID()); err != nil {
		panic(err)
	}

	// Remote subscribers: each names an interest; matching events published
	// anywhere in the SCINET are forwarded here in batches.
	controlSeen := make(chan sci.Event, 256)
	if _, err := controlFab.SubscribeRemote(sci.NewGUID(sci.KindApplication),
		sci.EventFilter{Type: sci.TemperatureKelvin}, func(e sci.Event) {
			controlSeen <- e
		}); err != nil {
		panic(err)
	}
	dashCount := 0
	dashDone := make(chan struct{})
	if _, err := dashFab.SubscribeRemote(sci.NewGUID(sci.KindApplication),
		sci.EventFilter{Type: sci.TemperatureKelvin}, func(sci.Event) {
			dashCount++
			if dashCount == 32 {
				close(dashDone)
			}
		}); err != nil {
		panic(err)
	}

	// Let interest announcements reach the plant floor.
	for len(floorFab.Interests()) < 2 {
		time.Sleep(time.Millisecond)
	}

	// A probe on the plant floor ticks 32 readings.
	probe := sci.NewTemperatureSensor("boiler", sci.Ref{}, 294, 2, 1, nil)
	if err := floor.AddEntity(probe); err != nil {
		panic(err)
	}
	for i := 0; i < 32; i++ {
		if err := probe.Tick(); err != nil {
			panic(err)
		}
	}

	e := <-controlSeen
	fmt.Printf("control room sees %s readings from the plant floor (e.g. %.1f K)\n",
		e.Type, mustFloat(e, "value"))
	<-dashDone
	fmt.Printf("dashboard received %d readings\n", dashCount)
	fmt.Printf("plant floor shipped %d overlay batches carrying %d events\n",
		floorFab.BatchesForwarded.Value(), floorFab.EventsForwarded.Value())

	fleet, err := floorFab.FleetDispatchStats(2 * time.Second)
	if err != nil {
		panic(err)
	}
	published := fleet.Totals["eventbus.published"]
	fmt.Printf("fleet rollup: %d ranges, %.0f published, %.0f delivered, %.0f dropped\n",
		fleet.Ranges, published, fleet.Totals["eventbus.delivered"], fleet.Totals["eventbus.dropped"])
	// A renamed key reads 0 from the map: fail loudly rather than print it.
	if fleet.Ranges != 3 || published == 0 {
		panic(fmt.Sprintf("fleet rollup covers %d ranges with %.0f published, want 3 ranges and a non-zero total",
			fleet.Ranges, published))
	}
}

func mustFloat(e sci.Event, key string) float64 {
	v, _ := e.Float(key)
	return v
}
