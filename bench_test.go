package sci

// One benchmark per experiment in DESIGN.md's per-figure index. Each wraps
// the deterministic harness in internal/sim so `go test -bench=.` at the
// repository root regenerates every table/figure behaviour of the paper.
// cmd/scibench prints the same data as tables.

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/eventbus"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/sim"
	"sci/internal/transport"
	"sci/internal/wire"
)

var t0 = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

// BenchmarkE1_OverlayVsHierarchy — Fig 1 / §3 routing claim: overlay avoids
// the hierarchy's root bottleneck at comparable hop counts.
func BenchmarkE1_OverlayVsHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE1([]int{64}, 500, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.OverlayHopsP50), "overlay-hops-p50")
		b.ReportMetric(r.OverlayRelayRatio, "overlay-max/mean-load")
		b.ReportMetric(float64(r.TreeHopsP50), "tree-hops-p50")
		b.ReportMetric(r.TreeRelayRatio, "tree-max/mean-load")
	}
}

// BenchmarkE2_RangeChurn — Fig 2: registration and event throughput of one
// Range's Context Server.
func BenchmarkE2_RangeChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE2([]int{500})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RegisterPerSec, "registrations/s")
		b.ReportMetric(rows[0].EventsPerSec, "events/s")
	}
}

// BenchmarkE3_Composition — Fig 3: automatic configuration building by
// backward-chaining type matching.
func BenchmarkE3_Composition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE3([]int{1000}, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].ResolveTime.Microseconds()), "resolve-µs")
		b.ReportMetric(float64(rows[0].ReuseHits), "cache-hits")
	}
}

// BenchmarkE4_EventDispatch — Fig 4: delivery through the abstract CE/CAA
// interfaces at fan-out 100, plus a dispatch grid that measures the raw
// Event Mediator hot path: per-publish cost across total-subscription counts
// for exact-type filters (which the subscription index resolves without
// scanning unrelated subscriptions) and wildcard filters (which take the
// residual per-event matching path).
func BenchmarkE4_EventDispatch(b *testing.B) {
	b.Run("Fanout100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := sim.RunE4([]int{100}, 100)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].EventsPerSec, "deliveries/s")
		}
	})
	for _, mode := range []string{"exact", "wildcard"} {
		for _, subs := range []int{1, 100, 10000} {
			b.Run(fmt.Sprintf("%s/subs=%d", mode, subs), func(b *testing.B) {
				benchDispatch(b, mode, subs)
			})
		}
	}
}

// benchDispatch subscribes n consumers and measures Publish. In exact mode
// each consumer filters on its own concrete context type and every publish
// matches exactly one subscription, so the cost of a well-indexed dispatch
// is independent of n. In wildcard mode every consumer matches every event
// (inherent fan-out: cost necessarily grows with n).
func benchDispatch(b *testing.B, mode string, n int) {
	bus := eventbus.New(nil)
	defer bus.Close()
	for i := 0; i < n; i++ {
		f := event.Filter{Type: ctxtype.Type(fmt.Sprintf("bench.sub%d", i))}
		if mode == "wildcard" {
			f = event.Filter{}
		}
		if _, err := bus.Subscribe(f, func(event.Event) {}, eventbus.WithQueueLen(64)); err != nil {
			b.Fatal(err)
		}
	}
	e := event.New("bench.sub0", guid.New(guid.KindDevice), 0, t0, nil)
	// Warm the dispatch path (index key cache, target pools) before timing.
	if err := bus.Publish(e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bus.Publish(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPublish — batch-native delivery (PR 2): PublishAll resolves
// the dispatch index once per run of same-type events and appends each
// subscriber's share of a run under one ring lock with one wakeup. The grid
// crosses batch size with subscriber count; batch=1 is the per-event
// Publish baseline, so the events/s ratio within a subs row is the
// amortisation factor.
func BenchmarkBatchPublish(b *testing.B) {
	for _, subs := range []int{1, 100} {
		for _, batch := range []int{1, 16, 64, 256} {
			b.Run(fmt.Sprintf("subs=%d/batch=%d", subs, batch), func(b *testing.B) {
				benchBatchPublish(b, subs, batch)
			})
		}
	}
}

// benchBatchPublish subscribes n consumers to one concrete type (full
// fan-out: every event reaches every subscriber) and measures the publish
// side of PublishAll against per-event Publish.
func benchBatchPublish(b *testing.B, subs, batch int) {
	bus := eventbus.New(nil)
	defer bus.Close()
	qlen := 4 * batch
	if qlen < 64 {
		qlen = 64
	}
	for i := 0; i < subs; i++ {
		if _, err := bus.Subscribe(event.Filter{Type: "bench.batch"}, func(event.Event) {},
			eventbus.WithQueueLen(qlen)); err != nil {
			b.Fatal(err)
		}
	}
	src := guid.New(guid.KindDevice)
	events := make([]event.Event, batch)
	for i := range events {
		events[i] = event.New("bench.batch", src, uint64(i), t0, nil)
	}
	// Warm the dispatch path (index key cache, target pools) before timing.
	if err := bus.PublishAll(events); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if batch == 1 {
		for i := 0; i < b.N; i++ {
			if err := bus.Publish(events[0]); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		for i := 0; i < b.N; i++ {
			if err := bus.PublishAll(events); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*batch)/secs, "events/s")
	}
}

// BenchmarkE5_Discovery — Fig 5: concurrent discovery/registration bursts.
func BenchmarkE5_Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE5([]int{200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].P50.Microseconds()), "p50-µs")
		b.ReportMetric(float64(rows[0].P99.Microseconds()), "p99-µs")
	}
}

// BenchmarkE6_QueryModel — Fig 6: query XML encode/decode per mode.
func BenchmarkE6_QueryModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE6(100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].RoundTrip.Nanoseconds()), "subscribe-roundtrip-ns")
	}
}

// BenchmarkE7_CAPA — Fig 7 / §5: the full CAPA scenario end to end.
func BenchmarkE7_CAPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE7()
		if err != nil {
			b.Fatal(err)
		}
		if !res.BobCorrect || !res.JohnCorrect {
			b.Fatalf("wrong printers: bob=%s john=%s", res.BobPrinter, res.JohnPrinter)
		}
		b.ReportMetric(float64(res.BobLatency.Microseconds()), "bob-µs")
		b.ReportMetric(float64(res.JohnLatency.Microseconds()), "john-µs")
	}
}

// BenchmarkE8_Repair — §3.2/§6 adaptivity: configuration repair latency.
func BenchmarkE8_Repair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE8([]int{16})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Repaired {
			b.Fatal("repair failed")
		}
		b.ReportMetric(float64(rows[0].RepairTime.Microseconds()), "repair-µs")
	}
}

// BenchmarkE9_SemanticRebind — §2 iQueue critique: door→WLAN rebinding.
func BenchmarkE9_SemanticRebind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE9(8)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Rebound {
			b.Fatal("rebind failed")
		}
		b.ReportMetric(float64(res.RebindTime.Microseconds()), "rebind-µs")
	}
}

// BenchmarkE10_ScaleOut — §3 scalability: sharded query throughput.
func BenchmarkE10_ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunE10([]int{8}, 400, 800)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].QueriesPerSec, "queries/s")
	}
}

// BenchmarkWireCodec — the wire-path grid: one event batch through each
// encoding, the JSON envelope vs the binary codec (contiguous batch,
// interned type/GUID dictionaries), across batch sizes. Binary steady
// state — dictionaries warmed by the first frame — must report 0 allocs/op.
func BenchmarkWireCodec(b *testing.B) {
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		for _, batch := range []int{1, 16, 64, 256} {
			b.Run(fmt.Sprintf("codec=%s/batch=%d", codec, batch), func(b *testing.B) {
				benchWireCodec(b, codec, batch)
			})
		}
	}
}

func benchWireCodec(b *testing.B, codec wire.Codec, batch int) {
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	dev, rangeID := guid.New(guid.KindDevice), guid.New(guid.KindServer)
	events := make([]event.Event, batch)
	for i := range events {
		e := event.New(ctxtype.TemperatureCelsius, dev, uint64(i+1), t0,
			map[string]any{"value": float64(i)})
		e.Range = rangeID
		events[i] = e
	}
	m, err := wire.NewNativeEventBatch(src, dst, events, &wire.BatchCredit{Dropped: 1})
	if err != nil {
		b.Fatal(err)
	}
	enc := wire.NewEncoder(io.Discard, codec)
	defer enc.Release()
	// Warm the path: the first binary frame ships the dictionary entries;
	// steady state begins at the second.
	if err := enc.Write(m); err != nil {
		b.Fatal(err)
	}
	start := enc.BytesWritten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Write(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(enc.BytesWritten()-start)/float64(b.N), "bytes/frame")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(batch)/secs, "events/s")
	}
}

// BenchmarkCrossRangeFanout — SCINET cross-range event fan-out: events
// published in one Range reach remote subscribers in sibling Ranges as
// coalesced scinet.event_batch overlay messages (batch=1 is the unbatched
// per-event baseline), over the in-process network. Reports delivered
// events/s end to end and the coalescing ratio actually achieved on the
// wire.
func BenchmarkCrossRangeFanout(b *testing.B) {
	for _, peers := range []int{1, 3} {
		for _, batch := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("peers=%d/batch=%d", peers, batch), func(b *testing.B) {
				benchCrossRangeFanout(b, peers, batch)
			})
		}
	}
}

func benchCrossRangeFanout(b *testing.B, peers, batch int) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	mk := func(name string) (*server.Range, *scinet.Fabric) {
		rng := server.New(server.Config{
			Name:           name,
			Coverage:       location.Path("campus/" + name),
			BatchMaxEvents: batch,
			BatchMaxDelay:  2 * time.Millisecond,
		})
		f, err := scinet.NewFabric(rng, net, nil)
		if err != nil {
			b.Fatal(err)
		}
		return rng, f
	}
	pubRange, pubFabric := mk("pub")
	defer pubRange.Close()
	defer pubFabric.Close()

	var delivered atomic.Int64
	for i := 0; i < peers; i++ {
		rng, f := mk(fmt.Sprintf("sub%d", i))
		defer rng.Close()
		defer f.Close()
		if err := f.Join(pubFabric.NodeID()); err != nil {
			b.Fatal(err)
		}
		if _, err := f.SubscribeRemote(guid.New(guid.KindApplication),
			event.Filter{Type: "bench.fanout"}, func(event.Event) {
				delivered.Add(1)
			}); err != nil {
			b.Fatal(err)
		}
	}
	// Wait until the publisher knows every subscriber's interest.
	deadline := time.Now().Add(5 * time.Second)
	for len(pubFabric.Interests()) < peers {
		if time.Now().After(deadline) {
			b.Fatal("interest propagation timed out")
		}
		time.Sleep(time.Millisecond)
	}

	chunk := batch
	if chunk < 1 {
		chunk = 1
	}
	src := guid.New(guid.KindDevice)
	events := make([]event.Event, chunk)
	for i := range events {
		events[i] = event.New("bench.fanout", src, uint64(i), t0, nil)
	}
	target := int64(b.N) * int64(peers)
	b.ReportAllocs()
	b.ResetTimer()
	published := 0
	for published < b.N {
		n := chunk
		if published+n > b.N {
			n = b.N - published
		}
		if err := pubRange.PublishAll(events[:n]); err != nil {
			b.Fatal(err)
		}
		published += n
		// Flow control: the aggregate outstanding count bounds every single
		// subscriber's lag, so capping it below one delivery queue (4096)
		// guarantees no ring overflow even when one subscriber stalls.
		for int64(published)*int64(peers)-delivered.Load() > 2048 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	drainDeadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < target {
		if time.Now().After(drainDeadline) {
			b.Fatalf("delivered %d of %d events before deadline", delivered.Load(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(target)/secs, "events/s")
	}
	if msgs := pubFabric.BatchesForwarded.Value(); msgs > 0 {
		b.ReportMetric(float64(pubFabric.EventsForwarded.Value())/float64(msgs), "events/msg")
	}
}

// BenchmarkE12_AdaptiveFlowControl — the unified flow-control layer's
// hot-vs-idle experiment: one Range Service, a flooded and a trickle-fed
// remote application, static vs rate-adaptive coalescing, plus the
// induced-overload phase whose credit acks throttle the sender. Reports
// the adaptive row's hot throughput and idle p50 latency, and the
// throttled flush-rate ratio.
func BenchmarkE12_AdaptiveFlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, bp, err := sim.RunE12(5000, 64, 5*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mode == "adaptive" {
				b.ReportMetric(r.HotEventsPerSec, "hot-events/s")
				b.ReportMetric(float64(r.IdleP50.Microseconds()), "idle-p50-µs")
			}
		}
		if bp.OverloadFlushPerSec > 0 {
			b.ReportMetric(bp.HealthyFlushPerSec/bp.OverloadFlushPerSec, "throttle-ratio")
		}
	}
}

// BenchmarkE13_MultiHopOverload — the attributed/transitive credit
// experiment: a three-fabric chain (origin → relay → collapsed sink) whose
// relay-reported downstream congestion throttles the origin, plus the
// hot-bidirectional ack-economy phase. Reports the origin's flush-rate
// collapse and the standalone-ack cost relative to PR 4's
// one-ack-per-batch.
func BenchmarkE13_MultiHopOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE13(64, 5*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.Collapse > 0 {
			b.ReportMetric(res.Collapse, "origin-collapse-x")
		}
		b.ReportMetric(float64(res.RelayDownstream), "relay-downstream-drops")
		b.ReportMetric(res.AckRatioVsPR4, "acks-vs-pr4")
	}
}

// BenchmarkE14_HostileTenant — the tenant-isolation experiment: a hostile
// flood sharing first a Range and then a fabric link with a paced
// publisher, contained by per-publisher admission quotas and weighted-fair
// flushing. Reports the well tenant's p99 degradation with the quota on
// (vs its solo baseline), the hostile tenant's admission clip error, and
// the DRR evictions charged to the flooding source during the
// weights-only collapse.
func BenchmarkE14_HostileTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE14(2000, 64, 5*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LocalQuotaX, "range-p99-x-solo")
		b.ReportMetric(res.RemoteQuotaX, "fabric-p99-x-solo")
		b.ReportMetric(100*res.FloodClipErr, "clip-err-pct")
		b.ReportMetric(float64(res.ShedHostile), "hostile-shed-events")
	}
}
