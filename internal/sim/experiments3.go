package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/transport"
)

// E11Row reports cross-range fan-out delivery for one SCINET size.
type E11Row struct {
	// Ranges is the SCINET size: one publisher plus Ranges-1 subscribers.
	Ranges int
	// Events is the number of events published in the publisher Range.
	Events int
	// Batch is BatchMaxEvents on every Range.
	Batch int
	// EventsPerSec is the fleet-wide delivered throughput (publish start to
	// last remote delivery).
	EventsPerSec float64
	// MsgsPerPeer is the overlay event_batch messages the publisher sent to
	// each interested peer (⌈Events/Batch⌉ when coalescing holds).
	MsgsPerPeer float64
	// EventsPerMsg is the achieved coalescing ratio on the wire.
	EventsPerMsg float64
}

// RunE11 (ROADMAP cross-range fan-out): events published in one Range reach
// a subscriber in every other Range of the SCINET as coalesced
// scinet.event_batch overlay messages with loop suppression. Returns one
// row per SCINET size, plus the fleet-wide dispatch.stats rollup collected
// over the overlay from the last topology.
func RunE11(rangeCounts []int, events, batch int) ([]E11Row, *scinet.FleetStats, error) {
	if batch < 1 {
		batch = 1
	}
	var rows []E11Row
	var fleet *scinet.FleetStats
	for _, rc := range rangeCounts {
		if rc < 2 {
			return nil, nil, fmt.Errorf("sim: e11 needs at least 2 ranges, got %d", rc)
		}
		net := transport.NewMemory(transport.MemoryConfig{})
		mk := func(name string) (*server.Range, *scinet.Fabric, error) {
			rng := server.New(server.Config{
				Name:           name,
				Coverage:       location.Path("campus/" + name),
				BatchMaxEvents: batch,
				BatchMaxDelay:  2 * time.Millisecond,
			})
			f, err := scinet.NewFabric(rng, net, nil)
			if err != nil {
				rng.Close()
				return nil, nil, err
			}
			return rng, f, nil
		}
		pubRange, pubFabric, err := mk("e11-pub")
		if err != nil {
			return nil, nil, err
		}
		peers := rc - 1
		var delivered atomic.Int64
		ranges := []*server.Range{pubRange}
		fabrics := []*scinet.Fabric{pubFabric}
		for i := 0; i < peers; i++ {
			rng, f, err := mk(fmt.Sprintf("e11-sub%d", i))
			if err != nil {
				return nil, nil, err
			}
			ranges, fabrics = append(ranges, rng), append(fabrics, f)
			if err := f.Join(pubFabric.NodeID()); err != nil {
				return nil, nil, err
			}
			if _, err := f.SubscribeRemote(guid.New(guid.KindApplication),
				event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
					delivered.Add(1)
				}); err != nil {
				return nil, nil, err
			}
		}
		waitUntil(func() bool { return len(pubFabric.Interests()) >= peers })

		src := guid.New(guid.KindDevice)
		chunk := make([]event.Event, 0, batch)
		target := int64(events) * int64(peers)
		start := time.Now()
		for i := 0; i < events; i++ {
			chunk = append(chunk, event.New(ctxtype.TemperatureCelsius, src,
				uint64(i+1), start, map[string]any{"value": float64(i)}))
			if len(chunk) == batch || i == events-1 {
				if err := pubRange.PublishAll(chunk); err != nil {
					return nil, nil, err
				}
				chunk = chunk[:0]
				// Aggregate outstanding bounds every subscriber's lag, so
				// capping it below one delivery queue prevents ring drops.
				for int64(i+1)*int64(peers)-delivered.Load() > 2048 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		waitUntil(func() bool { return delivered.Load() >= target })
		elapsed := time.Since(start).Seconds()

		row := E11Row{
			Ranges:       rc,
			Events:       events,
			Batch:        batch,
			EventsPerSec: float64(target) / elapsed,
		}
		if msgs := pubFabric.BatchesForwarded.Value(); msgs > 0 {
			row.MsgsPerPeer = float64(msgs) / float64(peers)
			row.EventsPerMsg = float64(pubFabric.EventsForwarded.Value()) / float64(msgs)
		}
		rows = append(rows, row)

		fleet, err = pubFabric.FleetDispatchStats(5 * time.Second)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range fabrics {
			_ = f.Close()
		}
		for _, r := range ranges {
			r.Close()
		}
		_ = net.Close()
	}
	return rows, fleet, nil
}

// E11Table formats RunE11 rows.
func E11Table(rows []E11Row) Table {
	t := Table{
		Title:  "E11 (ROADMAP fan-out): cross-range batched event fan-out over the SCINET",
		Header: []string{"ranges", "events", "batch", "events/s", "msgs/peer", "events/msg"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Ranges),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.1f", r.MsgsPerPeer),
			fmt.Sprintf("%.1f", r.EventsPerMsg),
		})
	}
	return t
}

// E11FleetTable formats the fleet-wide dispatch.stats rollup collected over
// the overlay.
func E11FleetTable(fs *scinet.FleetStats) Table {
	t := Table{
		Title:  fmt.Sprintf("E11 rollup: fleet-wide dispatch.stats across %d ranges", fs.Ranges),
		Header: []string{"range", "published", "delivered", "dropped", "subs", "hit ratio", "remote batches", "remote events"},
	}
	row := func(name string, st map[string]float64) []string {
		return []string{
			name,
			fmt.Sprintf("%.0f", st["published"]),
			fmt.Sprintf("%.0f", st["delivered"]),
			fmt.Sprintf("%.0f", st["dropped"]),
			fmt.Sprintf("%.0f", st["subs"]),
			fmt.Sprintf("%.3f", st["index_hit_ratio"]),
			fmt.Sprintf("%.0f", st["remote_batches_sent"]),
			fmt.Sprintf("%.0f", st["remote_events_sent"]),
		}
	}
	for _, pr := range fs.PerRange {
		t.Rows = append(t.Rows, row(pr.Name, pr.Stats))
	}
	t.Rows = append(t.Rows, row("TOTAL", fs.Totals))
	return t
}
