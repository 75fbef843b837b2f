package main

// metricDef is one row of the metric catalogue: the single place a metric's
// name, unit, direction and regression bound are declared. BENCHMARK.json
// is printed from it (-manifest) and bench_test.go keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; anything not named predicts no change.
	Moves string
	Def   string
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"xr-stream", "Headline: publish in one Range to a handler in another over TCP+binary; wire encode/decode, socket and scinet ingest do most of the work."},
	{"xr-stream-mem", "Same stream on transport.Memory (pointer passing): bypasses wire and the socket, so a codec or socket change must leave it unchanged."},
	{"xr-trickle", "Open loop at 20000 events/s to 3 subscriber Ranges over TCP: the coalescer's residency is the latency, so batching that trades delay for throughput shows here."},
	{"local-fanout", "One Range, 536 subscriptions over 64 types, no wire: eventbus and mediator do all the work; wire, transport and flow do none."},
	{"query-mix", "Discovery and aggregation: profile, advertisement and subscribe queries over a 4x16-room building; resolver, location and configuration do the work."},
}

// endToEnd lists what a user of the middleware sees. Every workload reports
// every one; none is ever 0. Three of the issue's seven are not here.
// failed_share and wire_bytes_per_event are 0 on healthy runs and wire-less
// workloads: failures ride the result line's attempted/failed counts and
// the byte figure is the per-layer transport.wire_bytes_per_event.
// latency_p99_us is the per-layer bench.latency_p99_us: over ten seeds on the
// reference box (a shared 2-vCPU microVM) its spread reached 24 % on two
// workloads, against the 25 % a bound may be at most. Every bound is that
// 25 %: the box's own speed moves by 10–15 % over minutes (README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "workload construction to readiness (a probe event has reached every subscriber handler); median of the set-ups made in the run"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "ops per second in each of the ten measurement windows, median; an op is one event entering one subscriber handler, or one query answered"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "publish call (xr-trickle: the tick's due time) to handler entry, or Submit call to return: median of every sample of a window, median over the windows"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "process user+system CPU (getrusage) of a window divided by its ops, median over the windows"},
}

var perLayer = []metricDef{
	{Name: "bench.latency_p99_us", Unit: "us", Better: "lower",
		Moves: "the tail of latency_p50_us on every workload; xr-trickle must keep it at or below 10000",
		Def:   "99th percentile of a window's latency samples, median over the windows, of the untraced pass"},
	// Traced stages: contiguous per-event intervals whose means add up to
	// the traced run's mean latency.
	{Name: "bench.generator_us", Unit: "us", Better: "lower",
		Moves: "none: the harness's own share (event stamp or due time to publish call)",
		Def:   "traced stage: Event.Time to the start of the Publish/PublishAll call"},
	{Name: "server.publish_us", Unit: "us", Better: "lower",
		Moves: "ops_per_s on xr-stream, xr-stream-mem, local-fanout",
		Def:   "traced stage: the Range.Publish/PublishAll call"},
	{Name: "flow.residency_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on xr-trickle",
		Def:   "traced stage: publish return to the start of the Endpoint.Send carrying the event (tap wakeup, coalescer wait, fan-out)"},
	{Name: "transport.send_us", Unit: "us", Better: "lower",
		Moves: "ops_per_s, cpu_us_per_op on xr-stream; not xr-stream-mem",
		Def:   "traced stage: Endpoint.Send (encode + socket write on TCP; inbox put on Memory)"},
	{Name: "transport.transit_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on xr-trickle, ops_per_s on xr-stream",
		Def:   "traced stage: Send return to the receiving Handler's entry (kernel, read, decode, inbox wake)"},
	{Name: "scinet.ingest_us", Unit: "us", Better: "lower",
		Moves: "ops_per_s on xr-stream, xr-stream-mem",
		Def:   "traced stage: the receiving transport Handler (overlay deliver, handleEventBatch, ingest PublishAll)"},
	{Name: "eventbus.wakeup_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on xr-trickle, local-fanout",
		Def:   "traced stage: ingest return (or local publish return) to subscriber handler entry"},
	{Name: "bench.trace_gap_share", Unit: "share", Better: "lower",
		Moves: "none: must stay at or below 0.05",
		Def:   "|traced mean latency - sum of stage means| / traced mean latency"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower",
		Moves: "none: cost of the tracing wrappers",
		Def:   "1 - traced ops_per_s / untraced ops_per_s of the same process"},

	// Counters read after the traced phase.
	{Name: "flow.events_per_flush", Unit: "count", Better: "higher",
		Moves: "ops_per_s on xr-stream; latency_p50_us on xr-trickle",
		Def:   "Fabric.EventsForwarded / BatchesForwarded on the publishing fabric"},
	{Name: "eventbus.index_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "ops_per_s on local-fanout",
		Def:   "Mediator.IndexHitRatio of the dispatching Range"},
	{Name: "eventbus.dropped_share", Unit: "share", Better: "lower",
		Moves: "failed count on every event workload",
		Def:   "DispatchStats().Dropped / Published summed over the workload's Ranges"},
	{Name: "resolver.cache_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "latency_p50_us on query-mix",
		Def:   "sub-graph cache hits / lookups of a Resolver replaying the workload's subscribe queries with the server's Context"},
	{Name: "bench.generator_late_us_p99", Unit: "us", Better: "lower",
		Moves: "none: an xr-trickle run is invalid above 5000",
		Def:   "99th percentile of how late the open-loop generator fired a tick in a window, median over the windows"},
	{Name: "transport.wire_bytes_per_event", Unit: "B", Better: "lower",
		Moves: "cpu_us_per_op on xr-stream, xr-trickle",
		Def:   "sum of WireStats().BytesSent over all endpoints / events published; 0 where no bytes cross a wire"},

	// Per-mode spans of query-mix.
	{Name: "server.submit_profile_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on query-mix",
		Def:   "mean Range.Submit of the ModeProfile queries"},
	{Name: "server.submit_advert_us", Unit: "us", Better: "lower",
		Moves: "bench.latency_p99_us, ops_per_s on query-mix",
		Def:   "mean Range.Submit of the ModeAdvertisement queries"},
	{Name: "server.submit_subscribe_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on query-mix",
		Def:   "mean Range.Submit of the ModeSubscribe queries"},
	{Name: "configuration.teardown_us", Unit: "us", Better: "lower",
		Moves: "ops_per_s on query-mix",
		Def:   "mean Runtime().Teardown after each subscribe query"},

	// Isolated calls, fixed iteration counts.
	{Name: "eventbus.publish_exact_ns_per_event", Unit: "ns", Better: "lower",
		Moves: "ops_per_s on local-fanout, xr-stream-mem",
		Def:   "Bus.PublishAll of 64 events, 1 of 1024 exact subscriptions matches"},
	{Name: "eventbus.publish_exact_allocs_per_event", Unit: "count", Better: "lower",
		Moves: "cpu_us_per_op on local-fanout", Def: "mallocs per event of the same call"},
	{Name: "eventbus.publish_residual_ns_per_event", Unit: "ns", Better: "lower",
		Moves: "ops_per_s on local-fanout",
		Def:   "the same with 16 subject-only subscriptions in the residual tier"},
	{Name: "eventbus.publish_wildcard10k_us", Unit: "us", Better: "lower",
		Moves: "none of the five workloads; recorded for the trie item",
		Def:   "one Bus.Publish reaching 10000 wildcard subscriptions"},
	{Name: "eventbus.publish_wildcard10k_allocs", Unit: "count", Better: "lower",
		Moves: "none of the five workloads", Def: "mallocs of the same call"},
	{Name: "mediator.subscribe_cancel_us", Unit: "us", Better: "lower",
		Moves: "ops_per_s on query-mix", Def: "Mediator.Subscribe followed by Cancel"},
	{Name: "flow.add_flush_ns_per_event", Unit: "ns", Better: "lower",
		Moves: "ops_per_s on xr-stream, xr-stream-mem",
		Def:   "Coalescer.AddAll of 64 events flushing into a no-op Send"},
	{Name: "wire.encode_ns_per_event", Unit: "ns", Better: "lower",
		Moves: "ops_per_s, cpu_us_per_op on xr-stream; never xr-stream-mem",
		Def:   "binary Encoder.Write of a 64-event batch, warmed dictionaries"},
	{Name: "wire.encode_allocs_per_event", Unit: "count", Better: "lower",
		Moves: "cpu_us_per_op on xr-stream", Def: "mallocs per event of the same call"},
	{Name: "wire.decode_ns_per_event", Unit: "ns", Better: "lower",
		Moves: "ops_per_s, cpu_us_per_op on xr-stream; never xr-stream-mem",
		Def:   "Decoder.Read of the same frames"},
	{Name: "wire.decode_allocs_per_event", Unit: "count", Better: "lower",
		Moves: "cpu_us_per_op on xr-stream", Def: "mallocs per event of the same call"},
	{Name: "wire.bytes_per_event", Unit: "B", Better: "lower",
		Moves: "transport.wire_bytes_per_event on xr-stream",
		Def:   "frame bytes / 64 for the same batch"},
	{Name: "wire.encode_b1_ns_per_frame", Unit: "ns", Better: "lower",
		Moves: "cpu_us_per_op on xr-trickle",
		Def:   "Encoder.Write of a 1-event batch, where per-frame cost dominates"},
	{Name: "wire.decode_b1_ns_per_frame", Unit: "ns", Better: "lower",
		Moves: "cpu_us_per_op on xr-trickle", Def: "Decoder.Read of the same frames"},
	{Name: "wire.bytes_per_frame_b1", Unit: "B", Better: "lower",
		Moves: "transport.wire_bytes_per_event on xr-trickle", Def: "bytes of one 1-event frame"},
	{Name: "transport.tcp_frame_us_b64", Unit: "us", Better: "lower",
		Moves: "ops_per_s on xr-stream",
		Def:   "pre-built 64-event batch streamed endpoint to endpoint over TCP loopback, per frame"},
	{Name: "transport.mem_frame_us_b64", Unit: "us", Better: "lower",
		Moves: "ops_per_s on xr-stream-mem", Def: "the same over transport.Memory"},
	{Name: "transport.tcp_rtt_us_p50", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on xr-trickle", Def: "1-event frame ping-pong over TCP loopback, median"},
	{Name: "transport.connect_us", Unit: "us", Better: "lower",
		Moves: "setup_s on xr-stream, xr-trickle", Def: "first Send to a new peer: dial + codec hello, median"},
	{Name: "transport.write_syscalls_per_frame", Unit: "count", Better: "lower",
		Moves: "ops_per_s on xr-stream",
		Def:   "syscw delta of /proc/self/io across the TCP stream loop / frames; 0 if unreadable"},
	{Name: "transport.read_syscalls_per_frame", Unit: "count", Better: "lower",
		Moves: "ops_per_s on xr-stream", Def: "syscr delta of the same loop / frames; 0 if unreadable"},
	{Name: "overlay.route_ns_per_msg", Unit: "ns", Better: "lower",
		Moves: "ops_per_s on xr-trickle", Def: "Node.Route, one hop, transport.Memory, per message"},
	{Name: "scinet.join_ms", Unit: "ms", Better: "lower",
		Moves: "setup_s on the three xr workloads", Def: "Fabric.Join of the subscriber fabric over TCP, median"},
	{Name: "scinet.interest_ready_ms", Unit: "ms", Better: "lower",
		Moves: "setup_s on the three xr workloads",
		Def:   "SubscribeRemote to the first probe event delivered, over TCP, median"},
	{Name: "rangesvc.remote_events_per_s", Unit: "1/s", Better: "higher",
		Moves: "none of the five workloads: the one delivery path they do not cover",
		Def:   "events/s to one remote CAA attached through rangesvc.NewHost over TCP"},
	{Name: "rangesvc.remote_deliver_us_p50", Unit: "us", Better: "lower",
		Moves: "none of the five workloads", Def: "emit to remote handler entry on the same path, median"},
	{Name: "resolver.resolve_advert_us", Unit: "us", Better: "lower",
		Moves: "bench.latency_p99_us, ops_per_s on query-mix",
		Def:   "Resolver.Resolve of the workload's advertisement query"},
	{Name: "resolver.resolve_subscribe_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on query-mix",
		Def:   "Resolver.Resolve of the workload's location.position subscribe query"},
	{Name: "location.travel_distance_us", Unit: "us", Better: "lower",
		Moves: "bench.latency_p99_us, ops_per_s on query-mix",
		Def:   "Map.TravelDistance from a client room to a printer room"},
	{Name: "profile.find_providers_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us on query-mix",
		Def:   "Profiles().FindProviders of the door-sighting pattern"},
	{Name: "configuration.instantiate_teardown_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_us, ops_per_s on query-mix",
		Def:   "Runtime().InstantiateBatch + Teardown of the location.position configuration"},
	{Name: "registry.register_us", Unit: "us", Better: "lower",
		Moves: "setup_s on query-mix", Def: "Registrar.Register of a new entity"},
	{Name: "server.add_entity_us", Unit: "us", Better: "lower",
		Moves: "setup_s on query-mix", Def: "Range.AddEntity of a door sensor"},
	{Name: "metrics.histogram_record_ns", Unit: "ns", Better: "lower",
		Moves: "none: predicted below every end-to-end bound",
		Def:   "metrics.Histogram.Record"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultMeasureSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload(w))
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
