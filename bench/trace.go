package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/transport"
	"sci/internal/wire"
)

// probeSeqBase marks readiness probes: an event whose Seq is at or above it
// is excluded from every count, oracle and trace.
const probeSeqBase = uint64(1) << 62

// traceSlots bounds the tracer's memory: at most this many events are
// stamped per run, spread over the whole pass by a sampling stride.
const traceSlots = 1 << 18

// Stage names, in journey order. Each is the interval between two stamps
// taken at a layer boundary from the benchmark's own files, so the stage
// means of an event telescope to its latency exactly.
var stageNames = []string{
	"bench.generator_us",
	"server.publish_us",
	"flow.residency_us",
	"transport.send_us",
	"transport.transit_us",
	"scinet.ingest_us",
	"eventbus.wakeup_us",
}

// linkStamps holds, per sampled event, the four wire-boundary stamps of one
// subscriber link. Each column is written by one goroutine at a time (the
// flush path for the send pair, the receiver's read loop for the handler
// pair) and read only after the run has quiesced.
type linkStamps struct {
	sendStart, sendRet, handIn, handOut []int64
}

type deliverySample struct {
	sub  int32
	slot int32
	at   int64
}

// tracer stamps a stride-sampled subset of events at every layer boundary
// the benchmark can see from outside: the publish call, Endpoint.Send, the
// receiving transport Handler and subscriber handler entry. Stamps are
// nanoseconds since t0 and stay in memory until the run ends.
type tracer struct {
	t0     time.Time
	stride uint64
	base   atomic.Uint64 // first traced Seq; MaxUint64 while unarmed

	due, pubStart, pubRet []int64

	mu    sync.RWMutex
	links map[guid.GUID]*linkStamps // subscriber fabric node → its link
	order []*linkStamps             // by subscriber index

	deliveries []deliverySample
	nDeliv     atomic.Int64

	// sent and handled count every traced-phase event (sampled or not)
	// whose Send / Handler has returned: the run waits for both to reach
	// the expected total before reading the stamps.
	sent, handled atomic.Uint64
}

// newTracer sizes the sampling stride so that expectEvents events spread
// over traceSlots slots; expectDeliveries bounds the delivery samples.
func newTracer(expectEvents, deliveriesPerEvent float64) *tracer {
	stride := uint64(math.Ceil(expectEvents / traceSlots))
	if stride < 1 {
		stride = 1
	}
	if deliveriesPerEvent < 1 {
		deliveriesPerEvent = 1
	}
	t := &tracer{
		t0:         time.Now(),
		stride:     stride,
		due:        make([]int64, traceSlots),
		pubStart:   make([]int64, traceSlots),
		pubRet:     make([]int64, traceSlots),
		links:      make(map[guid.GUID]*linkStamps),
		deliveries: make([]deliverySample, int(float64(traceSlots)*deliveriesPerEvent)+1),
	}
	t.base.Store(math.MaxUint64)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// arm starts stamping at the first event whose Seq is at least base.
func (t *tracer) arm(base uint64) { t.base.Store(base) }

// slot maps a Seq to its stamp index, or -1 when the event is not sampled.
func (t *tracer) slot(base, seq uint64) int {
	if seq < base || seq >= probeSeqBase {
		return -1
	}
	d := seq - base
	if d%t.stride != 0 || d/t.stride >= traceSlots {
		return -1
	}
	return int(d / t.stride)
}

// registerSubscriber names the fabric node whose inbound link is subscriber
// idx; called in index order during set-up.
func (t *tracer) registerSubscriber(node guid.GUID) {
	l := &linkStamps{
		sendStart: make([]int64, traceSlots),
		sendRet:   make([]int64, traceSlots),
		handIn:    make([]int64, traceSlots),
		handOut:   make([]int64, traceSlots),
	}
	t.mu.Lock()
	t.links[node] = l
	t.order = append(t.order, l)
	t.mu.Unlock()
}

// forgetSubscribers drops the links of a set-up that is being rebuilt.
func (t *tracer) forgetSubscribers() {
	t.mu.Lock()
	t.links = make(map[guid.GUID]*linkStamps)
	t.order = nil
	t.mu.Unlock()
}

func (t *tracer) linkFor(node guid.GUID) *linkStamps {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.links[node]
}

// stampPublish records one publish call covering events.
func (t *tracer) stampPublish(events []event.Event, start, ret int64) {
	base := t.base.Load()
	for i := range events {
		if s := t.slot(base, events[i].Seq); s >= 0 {
			t.due[s] = int64(events[i].Time.Sub(t.t0))
			t.pubStart[s] = start
			t.pubRet[s] = ret
		}
	}
}

func (t *tracer) stampPair(events []event.Event, a, b []int64, va, vb int64, done *atomic.Uint64) {
	base := t.base.Load()
	var n uint64
	for i := range events {
		seq := events[i].Seq
		if seq < base || seq >= probeSeqBase {
			continue
		}
		n++
		if s := t.slot(base, seq); s >= 0 {
			a[s], b[s] = va, vb
		}
	}
	done.Add(n)
}

// stampDelivery records subscriber handler entry.
func (t *tracer) stampDelivery(sub int, seq uint64, at int64) {
	s := t.slot(t.base.Load(), seq)
	if s < 0 {
		return
	}
	if i := t.nDeliv.Add(1) - 1; i < int64(len(t.deliveries)) {
		t.deliveries[i] = deliverySample{sub: int32(sub), slot: int32(s), at: at}
	}
}

// tracedNetwork wraps the transport.Network handed to scinet.NewFabric. It
// always remembers the endpoints (their WireStats feed the byte metric);
// with a tracer it also times Send and the inbound Handler of every message
// that carries a native batch, keyed by the events' Seq.
type tracedNetwork struct {
	transport.Network
	tr *tracer

	mu  sync.Mutex
	eps []transport.Endpoint
}

func newTracedNetwork(inner transport.Network, tr *tracer) *tracedNetwork {
	return &tracedNetwork{Network: inner, tr: tr}
}

// Attach implements transport.Network.
func (n *tracedNetwork) Attach(id guid.GUID, h transport.Handler) (transport.Endpoint, error) {
	if tr := n.tr; tr != nil {
		inner := h
		h = func(m wire.Message) {
			link := (*linkStamps)(nil)
			if m.Batch != nil {
				link = tr.linkFor(id)
			}
			if link == nil {
				inner(m)
				return
			}
			in := tr.now()
			inner(m)
			tr.stampPair(m.Batch.Events, link.handIn, link.handOut, in, tr.now(), &tr.handled)
		}
	}
	ep, err := n.Network.Attach(id, h)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.eps = append(n.eps, ep)
	n.mu.Unlock()
	if n.tr != nil {
		return &tracedEndpoint{Endpoint: ep, tr: n.tr}, nil
	}
	return ep, nil
}

// bytesSent sums WireStats().BytesSent over every endpoint attached so far.
func (n *tracedNetwork) bytesSent() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	for _, ep := range n.eps {
		if ws, ok := ep.(transport.WireStatser); ok {
			total += ws.WireStats().BytesSent
		}
	}
	return total
}

// codecs merges the per-endpoint codec gauges ("binary", "json", "native").
func (n *tracedNetwork) codecs() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int)
	for _, ep := range n.eps {
		if ws, ok := ep.(transport.WireStatser); ok {
			for c, k := range ws.WireStats().Codecs {
				out[c] += k
			}
		}
	}
	return out
}

type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

// Send implements transport.Endpoint.
func (e *tracedEndpoint) Send(m wire.Message) error {
	if m.Batch == nil {
		return e.Endpoint.Send(m)
	}
	link := e.tr.linkFor(m.Dst)
	if link == nil {
		return e.Endpoint.Send(m)
	}
	start := e.tr.now()
	err := e.Endpoint.Send(m)
	e.tr.stampPair(m.Batch.Events, link.sendStart, link.sendRet, start, e.tr.now(), &e.tr.sent)
	return err
}

// awaitQuiesce blocks until the Send and Handler of every traced-phase
// event have returned (expect events × links), so the stamp columns can be
// read without racing their writers.
func (t *tracer) awaitQuiesce(expect uint64, timeout time.Duration) bool {
	if len(t.order) == 0 {
		return true
	}
	return waitUntil(timeout, func() bool {
		return t.sent.Load() >= expect && t.handled.Load() >= expect
	})
}

// span is one traced interval of one event's journey.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Batch   uint64 `json:"batch"` // the event's Seq: spans of one event share it
	Sub     int    `json:"subscriber"`
}

// stageReport is the per-layer outcome of a traced pass.
type stageReport struct {
	MeanUs    map[string]float64 // stage name → mean µs (signed: a stage can start before the previous ends on another CPU)
	LatencyUs float64            // mean latency of the same sampled deliveries
	GapShare  float64
	Samples   int
	Stride    uint64
	Spans     []span
}

// maxSpansWritten bounds the trace file: the first this-many sampled
// deliveries are written out span by span.
const maxSpansWritten = 2000

// report folds the stamps into stage means. Stages are signed differences
// of consecutive stamps, so per delivery they sum to (delivery − due)
// exactly; the gap share then exposes deliveries with a missing stamp.
func (t *tracer) report() stageReport {
	rep := stageReport{MeanUs: make(map[string]float64), Stride: t.stride}
	n := int(t.nDeliv.Load())
	if n > len(t.deliveries) {
		n = len(t.deliveries)
	}
	sums := make([]float64, len(stageNames))
	counts := make([]int, len(stageNames))
	var latSum float64
	add := func(stage int, from, to int64) bool {
		if from == 0 || to == 0 {
			return false
		}
		sums[stage] += float64(to - from)
		counts[stage]++
		return true
	}
	// With no wire the journey is generator → publish → wakeup.
	stages := []int{0, 1, 2, 3, 4, 5, 6}
	if len(t.order) == 0 {
		stages = []int{0, 1, 6}
	}
	for _, d := range t.deliveries[:n] {
		s := int(d.slot)
		if t.pubStart[s] == 0 {
			continue
		}
		rep.Samples++
		latSum += float64(d.at - t.due[s])
		stamps := []int64{t.due[s], t.pubStart[s], t.pubRet[s]}
		if len(t.order) > 0 {
			l := t.order[d.sub]
			stamps = append(stamps, l.sendStart[s], l.sendRet[s], l.handIn[s], l.handOut[s])
		}
		stamps = append(stamps, d.at)
		for i, st := range stages {
			if add(st, stamps[i], stamps[i+1]) && len(rep.Spans) < maxSpansWritten*len(stages) {
				sp := span{Name: stageNames[st], StartNs: stamps[i], EndNs: stamps[i+1],
					Batch: t.base.Load() + uint64(s)*t.stride, Sub: int(d.sub)}
				if i > 0 {
					sp.Parent = stageNames[stages[i-1]]
				}
				rep.Spans = append(rep.Spans, sp)
			}
		}
	}
	if rep.Samples == 0 {
		return rep
	}
	var stageSum float64
	for i, name := range stageNames {
		if counts[i] > 0 {
			mean := sums[i] / float64(counts[i])
			rep.MeanUs[name] = mean / 1e3
			stageSum += mean
		}
	}
	lat := latSum / float64(rep.Samples)
	rep.LatencyUs = lat / 1e3
	if lat > 0 {
		rep.GapShare = math.Abs(lat-stageSum) / lat
	}
	return rep
}

// writeTrace stores the sampled spans of one workload under dir.
func writeTrace(dir, workload string, rep stageReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Stride   uint64             `json:"sampling_stride"`
		Samples  int                `json:"sampled_deliveries"`
		MeanUs   map[string]float64 `json:"stage_mean_us"`
		Spans    []span             `json:"spans"`
	}{workload, rep.Stride, rep.Samples, rep.MeanUs, rep.Spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
