package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/transport"
)

// The cross-range workloads share one shape: a publisher Range and one or
// more subscriber Ranges, each with a Fabric, joined in a star over one
// transport.Network. They differ in the wire (TCP loopback with the binary
// codec negotiated, or transport.Memory passing batch pointers) and in the
// load (closed-loop 64-event chunks, or an open-loop trickle).
const (
	xrType           = ctxtype.Type("bench.stream")
	xrBatchMaxEvents = 64
	xrBatchMaxDelay  = 2 * time.Millisecond
	xrChunk          = 64   // events per PublishAll in the closed loop
	xrWindow         = 2048 // closed loop: events outstanding per subscriber

	trickleTick    = time.Millisecond
	tricklePerTick = 20 // 20 000 events/s
	trickleSources = 8
	// trickleLimitUs is the latency limit xr-trickle must meet at its rate.
	trickleLimitUs = 10000.0
	// trickleBacklog is the most events per subscriber the limit lets be in
	// flight when the generator stops (rate × limit); the coalescer alone
	// holds two ticks' worth. Anything beyond is a growing backlog and
	// counts as failed.
	trickleBacklog = tricklePerTick * int(trickleLimitUs/1000)
	// trickleMaxCatchUp is how far behind its schedule the generator may
	// fall and still publish what it missed in one burst. Further behind —
	// the hypervisor froze the process, generator included — it skips the
	// missed ticks instead: the burst would overflow the 4096-entry rings
	// (205 ms of traffic) and the run would blame the middleware for the
	// hypervisor. The lateness is recorded either way, and invalidates the run.
	trickleMaxCatchUp = 100 * time.Millisecond
)

type xrSpec struct {
	tcp      bool
	subs     int
	openLoop bool
}

type xrInstance struct {
	spec xrSpec
	tr   *tracer
	src  *eventSource

	net     *tracedNetwork
	pub     *server.Range
	pubFab  *scinet.Fabric
	subs    []*xrSub
	ready   *readiness
	joinDur time.Duration // Fabric.Join of subscriber 0
	readyIn time.Duration // SubscribeRemote of subscriber 0 → its first probe

	win       atomic.Int32  // measurement window, or notMeasuring
	pubCount  atomic.Uint64 // events handed to Publish (probes excluded)
	pubErrs   atomic.Uint64
	delivered atomic.Uint64 // handler entries over all subscribers
	wake      chan struct{} // handler → closed-loop publisher: window may have room
	quit      chan struct{}
	gen       sync.WaitGroup

	late        windowed // open loop: how late each tick fired; generator-owned
	traceBase   uint64
	backlog     []uint64 // open loop: deliveries owed at each window boundary
	layerCounts map[string]float64
	lat         windowed
}

type xrSub struct {
	x    *xrInstance
	idx  int
	rng  *server.Range
	fab  *scinet.Fabric
	seen seqBitmap
	bad  uint64 // payload or source changed in flight
	lat  windowed
}

func xrWorkload(def workloadDef, spec xrSpec) workload {
	w := workload{workloadDef: def, deliveriesPerEvent: float64(spec.subs)}
	if spec.openLoop {
		w.limitP99Us = trickleLimitUs
	}
	w.setup = func(seed int64, tr *tracer) (instance, error) { return setupXR(spec, seed, tr) }
	return w
}

// errCodecFallback reports a TCP connection that negotiated JSON: the dialer
// waits 250 ms for the codec hello's answer, and a stalled box can miss it.
var errCodecFallback = errors.New("codec negotiation fell back to JSON")

// setupXR builds the system, again if a connection fell back to JSON: a
// run measured over the wrong codec would be worse than a slow set-up.
func setupXR(spec xrSpec, seed int64, tr *tracer) (*xrInstance, error) {
	for attempt := 0; ; attempt++ {
		x, err := buildXR(spec, seed, tr)
		if !errors.Is(err, errCodecFallback) || attempt == 2 {
			return x, err
		}
	}
}

func buildXR(spec xrSpec, seed int64, tr *tracer) (*xrInstance, error) {
	if tr != nil {
		tr.forgetSubscribers()
	}
	rng := rand.New(rand.NewSource(seed))
	sources := 1
	if spec.openLoop {
		sources = trickleSources
	}
	x := &xrInstance{
		spec:  spec,
		tr:    tr,
		src:   newEventSource(rng, sources),
		ready: newReadiness(spec.subs),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	x.win.Store(notMeasuring)
	var inner transport.Network
	if spec.tcp {
		inner = transport.NewTCP(nil)
	} else {
		inner = transport.NewMemory(transport.MemoryConfig{})
	}
	x.net = newTracedNetwork(inner, tr)
	mk := func(name string) (*server.Range, *scinet.Fabric, error) {
		r := server.New(server.Config{
			Name:           name,
			Coverage:       location.Path("campus/" + name),
			BatchMaxEvents: xrBatchMaxEvents,
			BatchMaxDelay:  xrBatchMaxDelay,
		})
		f, err := scinet.NewFabric(r, x.net, nil)
		if err != nil {
			r.Close()
			return nil, nil, err
		}
		return r, f, nil
	}
	var err error
	if x.pub, x.pubFab, err = mk("pub"); err != nil {
		x.close()
		return nil, err
	}
	var subscribedAt time.Time
	for i := 0; i < spec.subs; i++ {
		s := &xrSub{x: x, idx: i}
		if s.rng, s.fab, err = mk(fmt.Sprintf("sub%d", i)); err != nil {
			x.close()
			return nil, err
		}
		x.subs = append(x.subs, s)
		if tr != nil {
			tr.registerSubscriber(s.fab.NodeID())
		}
		t0 := time.Now()
		if err := s.fab.Join(x.pubFab.NodeID()); err != nil {
			x.close()
			return nil, fmt.Errorf("join: %w", err)
		}
		if i == 0 {
			x.joinDur = time.Since(t0)
			subscribedAt = time.Now()
		}
		owner := seededGUID(rng, guid.KindApplication)
		if _, err := s.fab.SubscribeRemote(owner, event.Filter{Type: xrType}, s.handle); err != nil {
			x.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	// Ready when a probe of the workload's own type has crossed every link
	// and entered every handler: only then is each forwarding tap live.
	probeSrc := seededGUID(rng, guid.KindDevice)
	probeSeq := probeSeqBase
	err = x.ready.await(func() error {
		probeSeq++
		return x.pub.Publish(event.New(xrType, probeSrc, probeSeq, time.Now(), nil))
	})
	if err != nil {
		x.close()
		return nil, err
	}
	x.readyIn = x.ready.at[0].Sub(subscribedAt)
	if spec.tcp {
		if c := x.net.codecs(); c["binary"] == 0 || c["json"] > 0 {
			x.close()
			return nil, fmt.Errorf("%w: %v", errCodecFallback, c)
		}
	}
	return x, nil
}

// handle is a subscriber's event handler: one op per entry.
func (s *xrSub) handle(e event.Event) {
	now := time.Now()
	x := s.x
	if e.Seq >= probeSeqBase {
		x.ready.probed(s.idx)
		return
	}
	s.seen.mark(e.Seq)
	if !x.src.intact(&e) {
		s.bad++
	}
	if w := x.win.Load(); w >= 0 {
		s.lat[w].record(int64(now.Sub(e.Time)))
	}
	if x.tr != nil {
		x.tr.stampDelivery(s.idx, e.Seq, int64(now.Sub(x.tr.t0)))
	}
	if n := x.delivered.Add(1); n%xrChunk == 0 {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

func (x *xrInstance) start() {
	x.gen.Add(1)
	go func() {
		defer x.gen.Done()
		if x.spec.openLoop {
			x.trickle()
		} else {
			x.stream()
		}
	}()
}

func (x *xrInstance) stopped() bool {
	select {
	case <-x.quit:
		return true
	default:
		return false
	}
}

// stream is the closed-loop publisher: 64-event PublishAll chunks with at
// most xrWindow events outstanding per subscriber.
func (x *xrInstance) stream() {
	chunk := make([]event.Event, xrChunk)
	for i := range chunk {
		chunk[i].Type = xrType
	}
	// A stalled window (deliveries lost) must surface as missing events in
	// the oracle, not as a hung run: when a whole interval passes without a
	// single delivery, publish anyway.
	stall := time.NewTicker(100 * time.Millisecond)
	defer stall.Stop()
	subs := uint64(len(x.subs))
	var seq, stalledAt uint64
	for !x.stopped() {
		for seq*subs+xrChunk*subs > x.delivered.Load()+xrWindow*subs {
			select {
			case <-x.wake:
				continue
			case <-x.quit:
				return
			case <-stall.C:
				if d := x.delivered.Load(); d != stalledAt {
					stalledAt = d
					continue
				}
			}
			break
		}
		now := time.Now()
		for i := range chunk {
			x.src.fill(&chunk[i], seq+uint64(i), now)
		}
		var t0 int64
		if x.tr != nil {
			t0 = x.tr.now()
		}
		if err := x.pub.PublishAll(chunk); err != nil {
			x.pubErrs.Add(xrChunk)
		}
		if x.tr != nil {
			x.tr.stampPublish(chunk, t0, x.tr.now())
		}
		seq += xrChunk
		x.pubCount.Store(seq)
	}
}

// trickle is the open-loop generator: every tick it publishes
// tricklePerTick single events stamped with the tick's due time, whether or
// not earlier ones have been delivered. It paces itself with nanosleep on a
// locked thread: a runtime timer fires a median 0.5 ms late here (p99 1.5 ms,
// the netpoller's millisecond granularity), and every microsecond the
// generator is late is charged to the system as latency.
func (x *xrInstance) trickle() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	e := event.Event{Type: xrType}
	begin := time.Now()
	var seq uint64
	for k := 0; !x.stopped(); k++ {
		due := begin.Add(time.Duration(k) * trickleTick)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early return only makes this tick early by less than it was late
		}
		late := time.Since(due)
		if w := x.win.Load(); w >= 0 {
			x.late[w].record(int64(late))
		}
		if late > trickleMaxCatchUp {
			begin = begin.Add(late)
			continue
		}
		for j := 0; j < tricklePerTick; j++ {
			x.src.fill(&e, seq, due)
			var t0 int64
			if x.tr != nil {
				t0 = x.tr.now()
			}
			if err := x.pub.Publish(e); err != nil {
				x.pubErrs.Add(1)
			}
			if x.tr != nil {
				x.tr.stampPublish([]event.Event{e}, t0, x.tr.now())
			}
			seq++
			x.pubCount.Store(seq)
		}
	}
}

func (x *xrInstance) setWindow(w int) {
	if w == 0 && x.tr != nil {
		// Arm one window ahead so no in-flight event is half-stamped.
		x.traceBase = x.pubCount.Load() + 2*xrWindow
		x.tr.arm(x.traceBase)
	}
	if w != 0 {
		// The publish counter trails the last Publish call, so clamp: a
		// delivery may be counted before its publish is.
		var owed uint64
		if want, got := x.pubCount.Load()*uint64(len(x.subs)), x.delivered.Load(); want > got {
			owed = want - got
		}
		x.backlog = append(x.backlog, owed)
	}
	x.win.Store(int32(w))
}

func (x *xrInstance) ops() uint64        { return x.delivered.Load() }
func (x *xrInstance) published() uint64  { return x.pubCount.Load() }
func (x *xrInstance) wireBytes() uint64  { return x.net.bytesSent() }
func (x *xrInstance) latency() *windowed { return &x.lat }

func (x *xrInstance) counters() map[string]float64 { return x.layerCounts }

func (x *xrInstance) stop() verdict {
	close(x.quit)
	x.gen.Wait()
	total, subs := x.pubCount.Load(), uint64(len(x.subs))
	waitUntil(drainTimeout, func() bool { return x.delivered.Load() >= total*subs })
	if x.tr != nil && total > x.traceBase {
		x.tr.awaitQuiesce((total-x.traceBase)*subs, drainTimeout)
	}

	v := verdict{attempted: total * subs}
	v.fail(x.pubErrs.Load(), "publish errors")
	var dropped, busPublished uint64
	ranges := []*server.Range{x.pub}
	for _, s := range x.subs {
		ranges = append(ranges, s.rng)
		v.fail(total-s.seen.unique, "events missing at subscriber %d", s.idx)
		v.fail(s.seen.dups, "duplicate deliveries at subscriber %d", s.idx)
		v.fail(s.bad, "events with a changed payload or source at subscriber %d", s.idx)
		x.lat.merge(&s.lat)
	}
	for _, r := range ranges {
		st := r.DispatchStats()
		dropped += st.Dropped
		busPublished += st.Published
	}
	v.fail(dropped, "events dropped from full subscription queues")
	if x.spec.openLoop && len(x.backlog) >= 3 {
		// A backlog that grows is there at every boundary; one left by a
		// stall of the whole process drains before the next. Judge by the
		// least of the last three.
		least := x.backlog[len(x.backlog)-1]
		for _, b := range x.backlog[len(x.backlog)-3:] {
			if b < least {
				least = b
			}
		}
		if allow := uint64(trickleBacklog) * subs; least > allow {
			v.backlog = least - allow
			v.fail(v.backlog, "events of growing backlog over the last three windows")
		}
	}

	x.layerCounts = map[string]float64{
		"eventbus.index_hit_ratio": x.pub.Mediator().IndexHitRatio(),
	}
	if b := x.pubFab.BatchesForwarded.Value(); b > 0 {
		x.layerCounts["flow.events_per_flush"] = float64(x.pubFab.EventsForwarded.Value()) / float64(b)
	}
	if busPublished > 0 {
		x.layerCounts["eventbus.dropped_share"] = float64(dropped) / float64(busPublished)
	}
	if x.spec.openLoop {
		x.layerCounts["bench.generator_late_us_p99"] = x.late.quantile(0.99) / 1e3
	}
	x.close()
	return v
}

// close tears the system down; safe on a partly built instance.
func (x *xrInstance) close() {
	select {
	case <-x.quit:
	default:
		close(x.quit)
	}
	for _, s := range x.subs {
		if s.fab != nil {
			_ = s.fab.Close()
		}
		if s.rng != nil {
			s.rng.Close()
		}
	}
	if x.pubFab != nil {
		_ = x.pubFab.Close()
	}
	if x.pub != nil {
		x.pub.Close()
	}
	_ = x.net.Close()
}
