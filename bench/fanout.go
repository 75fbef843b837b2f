package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/mediator"
	"sci/internal/server"
)

// local-fanout: one Range, no Fabric, no wire. 64 leaf types under 8 zones;
// 8 exact subscriptions per leaf, one ancestor subscription per zone and 16
// subject-only subscriptions in the residual tier.
const (
	fanZones        = 8
	fanRoomsPerZone = 8
	fanLeaves       = fanZones * fanRoomsPerZone
	fanExactPerLeaf = 8
	fanSubjects     = 16
	fanExactSubs    = fanLeaves * fanExactPerLeaf
	fanSubs         = fanExactSubs + fanZones + fanSubjects // 536
	fanQueueLen     = 1024
	fanChunk        = 32   // events per PublishAll
	fanWindow       = 4096 // closed loop: deliveries outstanding
	// The closed loop also caps what any one subscription may have pending,
	// checked every fanScanEvery chunks: when a vCPU is descheduled under one
	// delivery goroutine the others keep draining, the total stays low, and
	// without the cap that one ring (1024) overflows. 512 pending plus the
	// 256 events of the chunks between two scans stays below the ring.
	fanPerSubCap = 512
	fanScanEvery = 8
	fanPattern   = 4096 // seeded (type, subject) draws the stream cycles through
)

type fanDraw struct {
	leaf    int
	subject int // index into the filter subjects, or -1 for a subject no filter names
}

type fanInstance struct {
	tr    *tracer
	src   *eventSource
	rng   *server.Range
	ready *readiness

	types    [fanLeaves]ctxtype.Type
	subjects [fanSubjects]guid.GUID
	stranger guid.GUID // subject no filter names
	pattern  []fanDraw

	subs [fanSubs]fanSub

	win       atomic.Int32 // measurement window, or notMeasuring
	pubCount  atomic.Uint64
	pubErrs   atomic.Uint64
	expected  atomic.Uint64 // deliveries the published events must cause
	delivered atomic.Uint64
	wake      chan struct{}
	quit      chan struct{}
	gen       sync.WaitGroup

	// Per-filter publish counts, generator-owned until it has stopped.
	leafCount    [fanLeaves]uint64
	subjectCount [fanSubjects]uint64

	layerCounts map[string]float64
	lat         windowed
}

// fanSub is one subscription's oracle state, owned by its delivery
// goroutine. The bus delivers one publisher's events in order, so a strictly
// rising Seq plus the right count proves every expected event arrived once.
type fanSub struct {
	got     atomic.Uint64 // read by the publisher's per-subscription scan
	nextSeq uint64        // lowest Seq not yet seen
	disord  uint64        // deliveries whose Seq did not rise: duplicate or reordered
	bad     uint64
	lat     windowed
}

func fanoutWorkload(def workloadDef) workload {
	return workload{
		workloadDef:        def,
		deliveriesPerEvent: fanExactPerLeaf + 1 + 0.25,
		setup:              func(seed int64, tr *tracer) (instance, error) { return setupFanout(seed, tr) },
	}
}

func setupFanout(seed int64, tr *tracer) (*fanInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fanInstance{
		tr:    tr,
		src:   newEventSource(rng, 1),
		rng:   server.New(server.Config{Name: "fanout"}),
		ready: newReadiness(fanSubs),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	f.win.Store(notMeasuring)
	med := f.rng.Mediator()
	opts := mediator.SubOptions{QueueLen: fanQueueLen}
	subscribe := func(idx int, flt event.Filter) error {
		owner := seededGUID(rng, guid.KindApplication)
		_, err := med.Subscribe(owner, flt, func(e event.Event) { f.handle(idx, e) }, opts)
		return err
	}
	for z := 0; z < fanZones; z++ {
		zone := ctxtype.Type(fmt.Sprintf("bench.zone%d", z))
		if err := subscribe(fanExactSubs+z, event.Filter{Type: zone}); err != nil {
			f.rng.Close()
			return nil, err
		}
		for r := 0; r < fanRoomsPerZone; r++ {
			leaf := z*fanRoomsPerZone + r
			f.types[leaf] = ctxtype.Type(fmt.Sprintf("%s.room%d", zone, r))
			for k := 0; k < fanExactPerLeaf; k++ {
				if err := subscribe(leaf*fanExactPerLeaf+k, event.Filter{Type: f.types[leaf]}); err != nil {
					f.rng.Close()
					return nil, err
				}
			}
		}
	}
	for k := range f.subjects {
		f.subjects[k] = seededGUID(rng, guid.KindPerson)
		if err := subscribe(fanExactSubs+fanZones+k, event.Filter{Subject: f.subjects[k]}); err != nil {
			f.rng.Close()
			return nil, err
		}
	}
	f.stranger = seededGUID(rng, guid.KindPerson)
	f.pattern = make([]fanDraw, fanPattern)
	for i := range f.pattern {
		d := fanDraw{leaf: rng.Intn(fanLeaves), subject: -1}
		if rng.Intn(4) == 0 { // 1 in 4 hits a subject filter
			d.subject = rng.Intn(fanSubjects)
		}
		f.pattern[i] = d
	}

	// One probe per leaf type, subjects cycling, reaches all 536 handlers.
	probes := make([]event.Event, fanLeaves)
	err := f.ready.await(func() error {
		now := time.Now()
		for i := range probes {
			probes[i] = event.New(f.types[i], f.src.sources[0], probeSeqBase+uint64(i), now, nil).
				WithSubject(f.subjects[i%fanSubjects])
		}
		return f.rng.PublishAll(probes)
	})
	if err != nil {
		f.rng.Close()
		return nil, err
	}
	return f, nil
}

func (f *fanInstance) handle(idx int, e event.Event) {
	now := time.Now()
	if e.Seq >= probeSeqBase {
		f.ready.probed(idx)
		return
	}
	s := &f.subs[idx]
	s.got.Add(1)
	if e.Seq < s.nextSeq {
		s.disord++
	} else {
		s.nextSeq = e.Seq + 1
	}
	if !f.src.intact(&e) {
		s.bad++
	}
	if w := f.win.Load(); w >= 0 {
		s.lat[w].record(int64(now.Sub(e.Time)))
	}
	if f.tr != nil {
		f.tr.stampDelivery(idx, e.Seq, int64(now.Sub(f.tr.t0)))
	}
	if n := f.delivered.Add(1); n%256 == 0 {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}

func (f *fanInstance) start() {
	f.gen.Add(1)
	go func() {
		defer f.gen.Done()
		f.publish()
	}()
}

// publish is the closed-loop generator: 32-event mixed-type chunks with at
// most fanWindow deliveries outstanding.
func (f *fanInstance) publish() {
	chunk := make([]event.Event, fanChunk)
	stall := time.NewTicker(100 * time.Millisecond)
	defer stall.Stop()
	var seq, expected, stalledAt uint64
	for chunks := 0; ; chunks++ {
		for expected > f.delivered.Load()+fanWindow ||
			(chunks%fanScanEvery == 0 && f.worstLag() > fanPerSubCap) {
			select {
			case <-f.wake:
				continue
			case <-f.quit:
				return
			case <-stall.C:
				// No delivery for a whole interval: publish anyway so a
				// loss shows in the oracle instead of hanging the run.
				if d := f.delivered.Load(); d != stalledAt {
					stalledAt = d
					continue
				}
			}
			break
		}
		select {
		case <-f.quit:
			return
		default:
		}
		now := time.Now()
		for i := range chunk {
			s := seq + uint64(i)
			d := f.pattern[s%fanPattern]
			f.src.fill(&chunk[i], s, now)
			chunk[i].Type = f.types[d.leaf]
			f.leafCount[d.leaf]++
			expected += fanExactPerLeaf + 1
			if d.subject >= 0 {
				chunk[i].Subject = f.subjects[d.subject]
				f.subjectCount[d.subject]++
				expected++
			} else {
				chunk[i].Subject = f.stranger
			}
		}
		var t0 int64
		if f.tr != nil {
			t0 = f.tr.now()
		}
		if err := f.rng.PublishAll(chunk); err != nil {
			f.pubErrs.Add(fanChunk)
		}
		if f.tr != nil {
			f.tr.stampPublish(chunk, t0, f.tr.now())
		}
		seq += fanChunk
		f.expected.Store(expected)
		f.pubCount.Store(seq)
	}
}

// expectedFor is how many deliveries subscription idx is owed by what has
// been published. Publisher-owned until the generator has stopped.
func (f *fanInstance) expectedFor(idx int) uint64 {
	switch {
	case idx < fanExactSubs:
		return f.leafCount[idx/fanExactPerLeaf]
	case idx < fanExactSubs+fanZones:
		var n uint64
		z := idx - fanExactSubs
		for r := 0; r < fanRoomsPerZone; r++ {
			n += f.leafCount[z*fanRoomsPerZone+r]
		}
		return n
	default:
		return f.subjectCount[idx-fanExactSubs-fanZones]
	}
}

// worstLag is the most deliveries any one subscription still has pending.
func (f *fanInstance) worstLag() uint64 {
	var worst uint64
	for idx := range f.subs {
		if expect, got := f.expectedFor(idx), f.subs[idx].got.Load(); expect > got && expect-got > worst {
			worst = expect - got
		}
	}
	return worst
}

func (f *fanInstance) setWindow(w int) {
	if w == 0 && f.tr != nil {
		f.tr.arm(f.pubCount.Load() + 1024)
	}
	f.win.Store(int32(w))
}

func (f *fanInstance) ops() uint64        { return f.delivered.Load() }
func (f *fanInstance) published() uint64  { return f.pubCount.Load() }
func (f *fanInstance) wireBytes() uint64  { return 0 }
func (f *fanInstance) latency() *windowed { return &f.lat }

func (f *fanInstance) counters() map[string]float64 { return f.layerCounts }

func (f *fanInstance) stop() verdict {
	close(f.quit)
	f.gen.Wait()
	want := f.expected.Load()
	waitUntil(drainTimeout, func() bool { return f.delivered.Load() >= want })

	v := verdict{attempted: want}
	v.fail(f.pubErrs.Load(), "publish errors")
	var missing, surplus, disord, bad uint64
	for idx := range f.subs {
		s := &f.subs[idx]
		if got, expect := s.got.Load(), f.expectedFor(idx); got < expect {
			missing += expect - got
		} else {
			surplus += got - expect
		}
		disord += s.disord
		bad += s.bad
		f.lat.merge(&s.lat)
	}
	v.fail(missing, "deliveries missing")
	v.fail(surplus, "deliveries beyond what the filters admit")
	v.fail(disord, "duplicate or reordered deliveries")
	v.fail(bad, "events with a changed payload or source")
	st := f.rng.DispatchStats()
	v.fail(st.Dropped, "events dropped from full subscription queues")

	f.layerCounts = map[string]float64{
		"eventbus.index_hit_ratio": f.rng.Mediator().IndexHitRatio(),
	}
	if st.Published > 0 {
		f.layerCounts["eventbus.dropped_share"] = float64(st.Dropped) / float64(st.Published)
	}
	f.rng.Close()
	return v
}
