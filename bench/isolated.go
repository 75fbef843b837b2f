package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/eventbus"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/metrics"
	"sci/internal/overlay"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/rangesvc"
	"sci/internal/registry"
	"sci/internal/resolver"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// The isolated-layer pass times single calls into one layer at fixed
// iteration counts, so a change to that layer shows here even when no
// workload's bound can resolve it. scale multiplies every iteration count
// (1 for a real run; the package test uses 0.01).

// isoReps is how many times each timed loop runs; the median is reported.
const isoReps = 3

// timed runs fn iters times, isoReps times over, and returns the median
// nanoseconds and mallocs per call.
func timed(iters int, fn func()) (nsPer, allocsPer float64) {
	if iters < 1 {
		iters = 1
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < isoReps; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(iters))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(ns), median(allocs)
}

func scaled(n int, scale float64) int {
	if k := int(float64(n) * scale); k > 1 {
		return k
	}
	return 1
}

// isoEvents builds n events of one type as the stream workloads publish
// them: seeded ids and sources, a {"value": float} payload, a Range stamp.
func isoEvents(rng *rand.Rand, t ctxtype.Type, n int) []event.Event {
	es := newEventSource(rng, 1)
	stamp := seededGUID(rng, guid.KindRange)
	events := make([]event.Event, n)
	now := time.Now()
	for i := range events {
		events[i].Type = t
		events[i].Range = stamp
		es.fill(&events[i], uint64(i), now)
	}
	return events
}

type isoResult map[string]float64

// runIsolated runs the whole pass. Metrics a platform cannot supply (the
// /proc/self/io syscall counts) are reported as 0.
func runIsolated(seed int64, scale float64) (isoResult, error) {
	out := make(isoResult)
	steps := []func(*rand.Rand, float64, isoResult) error{
		isoEventbus, isoMediator, isoFlow, isoWire, isoTransport, isoOverlay,
		isoFabricSetup, isoRangesvc, isoQueryLayers, isoRegistry, isoHistogram,
	}
	for _, step := range steps {
		if err := step(rand.New(rand.NewSource(seed)), scale, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func isoEventbus(rng *rand.Rand, scale float64, out isoResult) error {
	build := func(residual int) (*eventbus.Bus, error) {
		bus := eventbus.New(nil)
		for i := 0; i < 1024; i++ {
			f := event.Filter{Type: ctxtype.Type(fmt.Sprintf("bench.iso.t%d", i))}
			if _, err := bus.Subscribe(f, func(event.Event) {}, eventbus.WithQueueLen(256)); err != nil {
				bus.Close()
				return nil, err
			}
		}
		for i := 0; i < residual; i++ {
			f := event.Filter{Subject: seededGUID(rng, guid.KindPerson)}
			if _, err := bus.Subscribe(f, func(event.Event) {}, eventbus.WithQueueLen(256)); err != nil {
				bus.Close()
				return nil, err
			}
		}
		return bus, nil
	}
	events := isoEvents(rng, "bench.iso.t0", 64)
	for _, c := range []struct {
		residual int
		ns       string
		allocs   string
	}{
		{0, "eventbus.publish_exact_ns_per_event", "eventbus.publish_exact_allocs_per_event"},
		{16, "eventbus.publish_residual_ns_per_event", ""},
	} {
		bus, err := build(c.residual)
		if err != nil {
			return err
		}
		_ = bus.PublishAll(events) // warm the key cache and target pools
		ns, allocs := timed(scaled(4000, scale), func() { _ = bus.PublishAll(events) })
		bus.Close()
		out[c.ns] = ns / 64
		if c.allocs != "" {
			out[c.allocs] = allocs / 64
		}
	}

	// 10 000 wildcard subscriptions, one Publish: the figure ROADMAP found
	// at 9–14 ms / 130–440 allocs against a documented 4.26 ms / 0.
	bus := eventbus.New(nil)
	defer bus.Close()
	for i := 0; i < 10000; i++ {
		if _, err := bus.Subscribe(event.Filter{}, func(event.Event) {}, eventbus.WithQueueLen(64)); err != nil {
			return err
		}
	}
	e := events[0]
	_ = bus.Publish(e)
	ns, allocs := timed(scaled(30, scale), func() { _ = bus.Publish(e) })
	out["eventbus.publish_wildcard10k_us"] = ns / 1e3
	out["eventbus.publish_wildcard10k_allocs"] = allocs
	return nil
}

func isoMediator(rng *rand.Rand, scale float64, out isoResult) error {
	med := mediator.New(ctxtype.NewRegistry())
	defer med.Close()
	owner := seededGUID(rng, guid.KindApplication)
	flt := event.Filter{Type: "bench.iso.subscribe"}
	var failed error
	ns, _ := timed(scaled(3000, scale), func() {
		rec, err := med.Subscribe(owner, flt, func(event.Event) {}, mediator.SubOptions{})
		if err == nil {
			err = med.Cancel(rec.ID)
		}
		if err != nil {
			failed = err
		}
	})
	out["mediator.subscribe_cancel_us"] = ns / 1e3
	return failed
}

func isoFlow(rng *rand.Rand, scale float64, out isoResult) error {
	c := flow.New(flow.Config{
		MaxBatch: xrBatchMaxEvents,
		MaxDelay: xrBatchMaxDelay,
		Send:     func([]event.Event) {},
	})
	defer c.Discard()
	events := isoEvents(rng, xrType, xrBatchMaxEvents)
	ns, _ := timed(scaled(100000, scale), func() { c.AddAll(events) })
	out["flow.add_flush_ns_per_event"] = ns / xrBatchMaxEvents
	return nil
}

func isoWire(rng *rand.Rand, scale float64, out isoResult) error {
	src, dst := seededGUID(rng, guid.KindServer), seededGUID(rng, guid.KindServer)
	for _, c := range []struct {
		batch                       int
		iters                       int
		encNs, encAllocs            string
		decNs, decAllocs, bytesName string
		perEvent                    bool
	}{
		{64, 6000, "wire.encode_ns_per_event", "wire.encode_allocs_per_event",
			"wire.decode_ns_per_event", "wire.decode_allocs_per_event", "wire.bytes_per_event", true},
		{1, 100000, "wire.encode_b1_ns_per_frame", "",
			"wire.decode_b1_ns_per_frame", "", "wire.bytes_per_frame_b1", false},
	} {
		m, err := wire.NewNativeEventBatch(src, dst, isoEvents(rng, xrType, c.batch), nil)
		if err != nil {
			return err
		}
		div := 1.0
		if c.perEvent {
			div = float64(c.batch)
		}
		iters := scaled(c.iters, scale)

		enc := wire.NewEncoder(io.Discard, wire.CodecBinary)
		if err := enc.Write(m); err != nil { // ships the dictionaries
			return err
		}
		before := enc.BytesWritten()
		var failed error
		ns, allocs := timed(iters, func() {
			if err := enc.Write(m); err != nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
		out[c.encNs] = ns / div
		if c.encAllocs != "" {
			out[c.encAllocs] = allocs / div
		}
		out[c.bytesName] = float64(enc.BytesWritten()-before) / float64(iters*isoReps) / div
		enc.Release()

		// Decode the same frames: one stream per repetition, its first frame
		// (the dictionary delta) read before the clock starts.
		var stream bytes.Buffer
		senc := wire.NewEncoder(&stream, wire.CodecBinary)
		for i := 0; i <= iters; i++ {
			if err := senc.Write(m); err != nil {
				return err
			}
		}
		senc.Release()
		var dns, dallocs []float64
		var m0, m1 runtime.MemStats
		for r := 0; r < isoReps; r++ {
			dec := wire.NewDecoder(bytes.NewReader(stream.Bytes()))
			if _, err := dec.Read(); err != nil {
				return err
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := dec.Read(); err != nil {
					return err
				}
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			dec.Release()
			dns = append(dns, float64(d.Nanoseconds())/float64(iters))
			dallocs = append(dallocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
		}
		out[c.decNs] = median(dns) / div
		if c.decAllocs != "" {
			out[c.decAllocs] = median(dallocs) / div
		}
	}
	return nil
}

// procIO reads the process's cumulative read and write syscall counts.
func procIO() (syscr, syscw uint64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, found := strings.Cut(line, ": ")
		if !found {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "syscr":
			syscr, ok = n, true
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw, ok
}

// streamFrames sends frames copies of m from a fresh endpoint to another on
// net and returns the time per frame once the last has been handled.
func streamFrames(net transport.Network, rng *rand.Rand, batch, frames int) (time.Duration, error) {
	a, b := seededGUID(rng, guid.KindServer), seededGUID(rng, guid.KindServer)
	var got atomic.Int64
	done := make(chan struct{}, 1)
	target := int64(frames) + 1
	epB, err := net.Attach(b, func(wire.Message) {
		if n := got.Add(1); n == 1 || n == target {
			done <- struct{}{}
		}
	})
	if err != nil {
		return 0, err
	}
	defer epB.Close()
	epA, err := net.Attach(a, func(wire.Message) {})
	if err != nil {
		return 0, err
	}
	defer epA.Close()
	m, err := wire.NewNativeEventBatch(a, b, isoEvents(rng, xrType, batch), nil)
	if err != nil {
		return 0, err
	}
	if err := epA.Send(m); err != nil { // dial, hello, dictionaries
		return 0, err
	}
	<-done
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		if err := epA.Send(m); err != nil {
			return 0, err
		}
	}
	<-done
	return time.Since(t0) / time.Duration(frames), nil
}

func isoTransport(rng *rand.Rand, scale float64, out isoResult) error {
	frames := scaled(20000, scale)
	tcp := transport.NewTCP(nil)
	defer tcp.Close()
	r0, w0, ioOK := procIO()
	per, err := streamFrames(tcp, rng, 64, frames)
	if err != nil {
		return err
	}
	out["transport.tcp_frame_us_b64"] = float64(per.Nanoseconds()) / 1e3
	out["transport.write_syscalls_per_frame"], out["transport.read_syscalls_per_frame"] = 0, 0
	if r1, w1, _ := procIO(); ioOK {
		out["transport.write_syscalls_per_frame"] = float64(w1-w0) / float64(frames)
		out["transport.read_syscalls_per_frame"] = float64(r1-r0) / float64(frames)
	}
	mem := transport.NewMemory(transport.MemoryConfig{})
	defer mem.Close()
	if per, err = streamFrames(mem, rng, 64, frames); err != nil {
		return err
	}
	out["transport.mem_frame_us_b64"] = float64(per.Nanoseconds()) / 1e3

	// Ping-pong of a 1-event frame: B answers every frame it receives.
	a, b := seededGUID(rng, guid.KindServer), seededGUID(rng, guid.KindServer)
	back := make(chan struct{}, 1)
	epA, err := tcp.Attach(a, func(wire.Message) { back <- struct{}{} })
	if err != nil {
		return err
	}
	defer epA.Close()
	ping, err := wire.NewNativeEventBatch(a, b, isoEvents(rng, xrType, 1), nil)
	if err != nil {
		return err
	}
	pong, err := wire.NewNativeEventBatch(b, a, isoEvents(rng, xrType, 1), nil)
	if err != nil {
		return err
	}
	var answer atomic.Pointer[transport.Endpoint] // set before the first ping leaves
	epB, err := tcp.Attach(b, func(wire.Message) { _ = (*answer.Load()).Send(pong) })
	if err != nil {
		return err
	}
	defer epB.Close()
	answer.Store(&epB)
	var rtt hist
	for i := 0; i < scaled(3000, scale)+1; i++ {
		t0 := time.Now()
		if err := epA.Send(ping); err != nil {
			return err
		}
		<-back
		if i > 0 { // the first round trip dials both directions
			rtt.record(int64(time.Since(t0)))
		}
	}
	out["transport.tcp_rtt_us_p50"] = rtt.quantile(0.5) / 1e3

	// First Send to a new peer: dial + codec hello.
	var connects []float64
	for i := 0; i < scaled(20, scale)+2; i++ {
		src, dst := seededGUID(rng, guid.KindServer), seededGUID(rng, guid.KindServer)
		epD, err := tcp.Attach(dst, func(wire.Message) {})
		if err != nil {
			return err
		}
		epS, err := tcp.Attach(src, func(wire.Message) {})
		if err != nil {
			return err
		}
		m, err := wire.NewNativeEventBatch(src, dst, isoEvents(rng, xrType, 1), nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = epS.Send(m)
		connects = append(connects, float64(time.Since(t0).Nanoseconds())/1e3)
		_ = epS.Close()
		_ = epD.Close()
		if err != nil {
			return err
		}
	}
	out["transport.connect_us"] = median(connects)
	return nil
}

func isoOverlay(rng *rand.Rand, scale float64, out isoResult) error {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	msgs := scaled(100000, scale)
	var got atomic.Int64
	done := make(chan struct{}, isoReps)
	a, err := overlay.NewNode(overlay.Config{Network: net})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := overlay.NewNode(overlay.Config{Network: net, Deliver: func(overlay.Delivery) {
		if got.Add(1)%int64(msgs) == 0 {
			done <- struct{}{}
		}
	}})
	if err != nil {
		return err
	}
	defer b.Close()
	if err := b.Join(a.ID()); err != nil {
		return err
	}
	payload := []byte(`{"n":1}`)
	var per []float64
	for r := 0; r < isoReps; r++ {
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			if err := a.Route(b.ID(), "bench.iso", payload); err != nil {
				return err
			}
		}
		<-done
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(msgs))
	}
	out["overlay.route_ns_per_msg"] = median(per)
	return nil
}

// isoFabricSetup times the two waits inside every cross-range set-up by
// building the xr-stream system a few times.
func isoFabricSetup(rng *rand.Rand, scale float64, out isoResult) error {
	var joins, readies []float64
	for i := 0; i < scaled(7, scale)+2; i++ {
		x, err := setupXR(xrSpec{tcp: true, subs: 1}, rng.Int63(), nil)
		if err != nil {
			return err
		}
		joins = append(joins, float64(x.joinDur.Nanoseconds())/1e6)
		readies = append(readies, float64(x.readyIn.Nanoseconds())/1e6)
		x.close()
	}
	out["scinet.join_ms"] = median(joins)
	out["scinet.interest_ready_ms"] = median(readies)
	return nil
}

// isoRangesvc drives the one delivery path no workload covers: a source CE
// in the Range, a remote CAA attached through rangesvc over TCP.
func isoRangesvc(rng *rand.Rand, scale float64, out isoResult) error {
	r := server.New(server.Config{
		Name:           "remote",
		BatchMaxEvents: xrBatchMaxEvents,
		BatchMaxDelay:  xrBatchMaxDelay,
	})
	defer r.Close()
	net := transport.NewTCP(nil)
	defer net.Close()
	host, err := rangesvc.NewHost(r, net, nil)
	if err != nil {
		return err
	}
	defer host.Close()
	thermo := sensor.NewTemperatureSensor("remote", location.Ref{}, 294, 2, rng.Int63(), nil)
	if err := r.AddEntity(thermo); err != nil {
		return err
	}
	var got atomic.Uint64
	var lat hist // owned by the connector's delivery goroutine until Close
	wake := make(chan struct{}, 1)
	appID := seededGUID(rng, guid.KindApplication)
	app, err := rangesvc.NewConnector(appID, "bench-remote", net, func(e event.Event) {
		lat.record(int64(time.Since(e.Time)))
		if got.Add(1)%64 == 0 {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}, nil)
	if err != nil {
		return err
	}
	if err := app.Register(r.ServerID(), profile.Profile{}, true); err != nil {
		_ = app.Close()
		return err
	}
	q := query.New(appID, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	if _, err := app.Submit(q); err != nil {
		_ = app.Close()
		return err
	}
	payload := map[string]any{"value": 294.0, "unit": "kelvin"}
	const window = 256 // a quarter of the connector's delivery queue
	run := time.Duration(float64(2*time.Second) * scale)
	stall := time.NewTicker(100 * time.Millisecond)
	defer stall.Stop()
	var sent uint64
	t0 := time.Now()
	for time.Since(t0) < run {
		for sent >= got.Load()+window {
			select {
			case <-wake:
			case <-stall.C:
			}
			if time.Since(t0) >= run {
				break
			}
		}
		if err := thermo.Emit(ctxtype.TemperatureKelvin, guid.Nil, payload); err != nil {
			_ = app.Close()
			return err
		}
		sent++
	}
	waitUntil(drainTimeout, func() bool { return got.Load() >= sent })
	elapsed := time.Since(t0)
	delivered := got.Load()
	if err := app.Close(); err != nil {
		return err
	}
	if delivered < sent {
		return fmt.Errorf("rangesvc: remote CAA received %d of %d events", delivered, sent)
	}
	out["rangesvc.remote_events_per_s"] = float64(delivered) / elapsed.Seconds()
	out["rangesvc.remote_deliver_us_p50"] = lat.quantile(0.5) / 1e3
	return nil
}

// isoQueryLayers times the layers under query-mix on that workload's own
// world and queries.
func isoQueryLayers(rng *rand.Rand, scale float64, out isoResult) error {
	q, err := setupQueryMix(rng.Int63())
	if err != nil {
		return err
	}
	defer q.rng.Close()
	res := resolver.New(q.rng.Profiles(), q.rng.Types(), q.rng.Places())
	ids := q.clients[0].ids
	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	i := 0
	next := func() *qmIdentity { i++; return &ids[i%len(ids)] }

	ns, _ := timed(scaled(32, scale), func() {
		id := next()
		_, err := res.Resolve(q.buildQuery(id, qmAdvert), q.serverContext(id))
		note(err)
	})
	out["resolver.resolve_advert_us"] = ns / 1e3
	ns, _ = timed(scaled(400, scale), func() {
		id := next()
		_, err := res.Resolve(q.buildQuery(id, qmLocation), q.serverContext(id))
		note(err)
	})
	out["resolver.resolve_subscribe_us"] = ns / 1e3

	printers := q.printers
	ns, _ = timed(scaled(1000, scale), func() {
		id := next()
		_ = q.building.Map.TravelDistance(location.AtPlace(id.room), printers[i%len(printers)].Profile().Location)
	})
	out["location.travel_distance_us"] = ns / 1e3

	ns, _ = timed(scaled(1000, scale), func() {
		_ = q.rng.Profiles().FindProviders(ctxtype.LocationSightingDoor, q.rng.Types())
	})
	out["profile.find_providers_us"] = ns / 1e3

	id := &ids[0]
	rctx := q.serverContext(id)
	cfg, err := res.Resolve(q.buildQuery(id, qmLocation), rctx)
	if err != nil {
		return err
	}
	ns, _ = timed(scaled(300, scale), func() {
		note(q.rng.Runtime().InstantiateBatch(cfg, rctx, func([]event.Event) {}))
		note(q.rng.Runtime().Teardown(cfg.ID))
	})
	out["configuration.instantiate_teardown_us"] = ns / 1e3

	sensors := make([]*sensor.DoorSensor, scaled(500, scale)*isoReps)
	for k := range sensors {
		sensors[k] = sensor.NewDoorSensor(fmt.Sprintf("iso%d", k), location.AtPlace(id.room), nil)
	}
	k := 0
	ns, _ = timed(len(sensors)/isoReps, func() {
		note(q.rng.AddEntity(sensors[k]))
		k++
	})
	out["server.add_entity_us"] = ns / 1e3
	return failed
}

func isoRegistry(rng *rand.Rand, scale float64, out isoResult) error {
	reg := registry.New(registry.Config{})
	defer reg.Close()
	ids := make([]guid.GUID, scaled(20000, scale)*isoReps)
	for i := range ids {
		ids[i] = seededGUID(rng, guid.KindDevice)
	}
	var failed error
	k := 0
	ns, _ := timed(len(ids)/isoReps, func() {
		if _, err := reg.Register(ids[k], "iso"); err != nil {
			failed = err
		}
		k++
	})
	out["registry.register_us"] = ns / 1e3
	return failed
}

func isoHistogram(_ *rand.Rand, scale float64, out isoResult) error {
	var h metrics.Histogram
	v := int64(1)
	ns, _ := timed(scaled(2000000, scale), func() {
		h.Record(v)
		v = v*3 + 1
		if v > 1<<40 {
			v = 1
		}
	})
	out["metrics.histogram_record_ns"] = ns
	return nil
}
