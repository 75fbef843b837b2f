package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
)

// windowsPerRun is how many equal windows the measured phase is cut into.
// Throughput, both latency percentiles and CPU per op are computed inside
// each window and reported as the median over the windows, so a stall or a
// noisy second moves one value of ten instead of the result.
const windowsPerRun = 10

// notMeasuring is the window index outside the measured phase: latency
// samples are kept only inside it; the oracle counts every phase.
const notMeasuring = -1

// windowed is one recording goroutine's latency samples, a histogram per
// measurement window.
type windowed [windowsPerRun]hist

func (w *windowed) merge(o *windowed) {
	for i := range w {
		w[i].merge(&o[i])
	}
}

// quantile is the q-quantile of each window that has samples, median over
// those windows, in nanoseconds.
func (w *windowed) quantile(q float64) float64 {
	var per []float64
	for i := range w {
		if w[i].n > 0 {
			per = append(per, w[i].quantile(q))
		}
	}
	return median(per)
}

func (w *windowed) samples() (n uint64) {
	for i := range w {
		n += w[i].n
	}
	return n
}

// drainTimeout bounds how long a stopped workload waits for in-flight
// deliveries; whatever is still missing then counts as failed.
const drainTimeout = 5 * time.Second

// verdict is a workload's correctness oracle outcome.
type verdict struct {
	attempted uint64
	failed    uint64
	backlog   uint64   // the part of failed that is an open loop's growing backlog
	notes     []string // one line per kind of violation
}

func (v *verdict) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	v.failed += n
	v.notes = append(v.notes, fmt.Sprintf("%d %s", n, fmt.Sprintf(format, args...)))
}

// instance is one built, ready workload: its system under test plus the
// load generators and oracle around it.
type instance interface {
	// start launches the generators; the warm-up begins.
	start()
	// setWindow opens measurement window w (0 first), or ends the measured
	// phase with notMeasuring.
	setWindow(w int)
	// ops is the monotone count of completed operations.
	ops() uint64
	// published is the monotone count of events handed to Publish.
	published() uint64
	// wireBytes sums BytesSent over the workload's transport endpoints.
	wireBytes() uint64
	// stop halts the generators, waits for the drain, runs the oracle and
	// closes the system.
	stop() verdict
	// latency is valid after stop.
	latency() *windowed
	// counters are per-layer counters read after stop.
	counters() map[string]float64
}

// workload builds instances. setup returns once every subscriber handler
// has seen a probe event; tr is nil on untraced runs.
type workload struct {
	workloadDef
	setup func(seed int64, tr *tracer) (instance, error)
	// deliveriesPerEvent sizes the tracer's delivery samples.
	deliveriesPerEvent float64
	// limitP99Us, when non-zero, is the workload's latency limit.
	limitP99Us float64
}

// passResult is what one warm-up + measured pass yields.
type passResult struct {
	Windows           []float64
	OpsPerS           float64
	LatencyP50Us      float64
	LatencyP99Us      float64
	LatencySamples    uint64
	CPUUsPerOp        float64
	WireBytesPerEvent float64
	Ops               uint64
	Attempted         uint64
	Failed            uint64
	Backlog           uint64
	Notes             []string
	Counters          map[string]float64
	Stages            *stageReport
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass drives one ready instance through warm-up and the measured phase.
// With a tracer, stamping is armed for the measured phase only.
func runPass(in instance, tr *tracer, warmup, measure time.Duration) passResult {
	in.start()
	time.Sleep(warmup)

	bytes0, pub0, ops0 := in.wireBytes(), in.published(), in.ops()
	res := passResult{Windows: make([]float64, 0, windowsPerRun)}
	var cpuPerOp []float64
	begin := time.Now()
	prevOps, prevAt, prevCPU := ops0, begin, cpuTime()
	for w := 0; w < windowsPerRun; w++ {
		in.setWindow(w)
		time.Sleep(time.Until(begin.Add(measure * time.Duration(w+1) / windowsPerRun)))
		now, o, cpu := time.Now(), in.ops(), cpuTime()
		res.Windows = append(res.Windows, float64(o-prevOps)/now.Sub(prevAt).Seconds())
		if o > prevOps {
			cpuPerOp = append(cpuPerOp, float64((cpu-prevCPU).Nanoseconds())/1e3/float64(o-prevOps))
		}
		prevOps, prevAt, prevCPU = o, now, cpu
	}
	in.setWindow(notMeasuring)
	bytes1, pub1 := in.wireBytes(), in.published()
	res.Ops = prevOps - ops0

	v := in.stop()
	res.Attempted, res.Failed, res.Backlog, res.Notes = v.attempted, v.failed, v.backlog, v.notes
	res.OpsPerS = median(res.Windows)
	res.CPUUsPerOp = median(cpuPerOp)
	lat := in.latency()
	res.LatencyP50Us, res.LatencyP99Us = lat.quantile(0.50)/1e3, lat.quantile(0.99)/1e3
	res.LatencySamples = lat.samples()
	if pub1 > pub0 {
		res.WireBytesPerEvent = float64(bytes1-bytes0) / float64(pub1-pub0)
	}
	res.Counters = in.counters()
	if tr != nil {
		rep := tr.report()
		res.Stages = &rep
	}
	return res
}

// seededGUID draws a GUID of the given kind from rng, so the identities a
// workload publishes under are inputs made from the seed.
func seededGUID(rng *rand.Rand, kind guid.Kind) guid.GUID {
	var g guid.GUID
	binary.BigEndian.PutUint64(g[0:8], rng.Uint64())
	binary.BigEndian.PutUint64(g[8:16], rng.Uint64())
	g[0] = byte(kind)
	return g
}

// payloadPoolSize is how many distinct seeded payload values a stream
// cycles through; the maps are built once and shared read-only, so the
// generator allocates nothing per event.
const payloadPoolSize = 4096

// eventSource mints a workload's events from its seed: identities, payload
// values and event ids are all functions of (seed, Seq).
type eventSource struct {
	idPrefix uint64
	sources  []guid.GUID
	values   []float64
	payloads []map[string]any
}

func newEventSource(rng *rand.Rand, sources int) *eventSource {
	es := &eventSource{idPrefix: rng.Uint64()}
	for i := 0; i < sources; i++ {
		es.sources = append(es.sources, seededGUID(rng, guid.KindDevice))
	}
	es.values = make([]float64, payloadPoolSize)
	es.payloads = make([]map[string]any, payloadPoolSize)
	for i := range es.values {
		es.values[i] = rng.Float64() * 1000
		es.payloads[i] = map[string]any{"value": es.values[i]}
	}
	return es
}

func (es *eventSource) id(seq uint64) guid.GUID {
	var g guid.GUID
	binary.BigEndian.PutUint64(g[0:8], es.idPrefix)
	binary.BigEndian.PutUint64(g[8:16], seq)
	g[0] = byte(guid.KindEvent)
	return g
}

// sourceOf is the publishing identity of Seq: sources rotate per event.
func (es *eventSource) sourceOf(seq uint64) guid.GUID {
	return es.sources[seq%uint64(len(es.sources))]
}

// fill makes e the event of sequence number seq.
func (es *eventSource) fill(e *event.Event, seq uint64, at time.Time) {
	e.ID = es.id(seq)
	e.Source = es.sourceOf(seq)
	e.Seq = seq
	e.Time = at
	e.Payload = es.payloads[seq%payloadPoolSize]
}

// intact reports whether e still carries what fill gave it — the payload
// value and source identity after whatever wire round trip it took.
func (es *eventSource) intact(e *event.Event) bool {
	v, ok := e.Payload["value"].(float64)
	return ok && v == es.values[e.Seq%payloadPoolSize] && e.Source == es.sourceOf(e.Seq)
}

// seqBitmap is one subscriber's record of which sequence numbers arrived.
// Owned by that subscriber's delivery goroutine until the run has drained.
type seqBitmap struct {
	words  []uint64
	unique uint64
	dups   uint64
}

func (b *seqBitmap) mark(seq uint64) {
	w, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(b.words)) <= w {
		b.words = append(b.words, make([]uint64, len(b.words)+1024)...)
	}
	if b.words[w]&bit != 0 {
		b.dups++
		return
	}
	b.words[w] |= bit
	b.unique++
}

// readiness collects one signal per subscriber handler: a handler reports
// the first probe it sees, and set-up re-publishes the probe every
// probeEvery until all have reported. No handler is polled and nothing
// sleeps on a guess, so an event published before the forwarding tap went
// live costs one more probe instead of a lost run.
type readiness struct {
	seen []atomic.Bool
	at   []time.Time // when handler i first saw a probe; read after await
	ch   chan int
}

// probeEvery is well under the coalescer's flush delay, so set-up time
// tracks when the taps went live instead of being quantised to the probe
// interval.
const probeEvery = time.Millisecond

func newReadiness(handlers int) *readiness {
	// One slot per handler: each reports at most once, so no send blocks.
	return &readiness{
		seen: make([]atomic.Bool, handlers),
		at:   make([]time.Time, handlers),
		ch:   make(chan int, handlers),
	}
}

// probed is called from handler i when it sees a probe event.
func (r *readiness) probed(i int) {
	if r.seen[i].CompareAndSwap(false, true) {
		r.at[i] = time.Now()
		r.ch <- i
	}
}

// await publishes the probe now and every probeEvery until every handler
// has reported.
func (r *readiness) await(publish func() error) error {
	ticker := time.NewTicker(probeEvery)
	defer ticker.Stop()
	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	if err := publish(); err != nil {
		return err
	}
	for pending := len(r.seen); pending > 0; {
		select {
		case <-r.ch:
			pending--
		case <-ticker.C:
			if err := publish(); err != nil {
				return err
			}
		case <-deadline.C:
			return fmt.Errorf("readiness: %d of %d handlers never saw a probe", pending, len(r.seen))
		}
	}
	return nil
}

// waitUntil polls cond until it holds or timeout passes. It is used only to
// wait for a stopped workload to drain — counters that can no longer be
// missed — never for readiness.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
