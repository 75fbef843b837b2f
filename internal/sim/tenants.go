package sim

// Hostile-tenant isolation. Two tenants share first a Range and then a
// SCINET fabric: a well-behaved publisher pacing one event per 2ms, and a
// hostile one flooding as fast as the CPU allows. Phase A
// measures the shared Range's dispatch edge — with a per-publisher
// admission quota the hostile flood is clipped to its configured rate at
// the publish call and the well tenant's delivery p99 stays within 3× its
// solo baseline; a no-quota control shows what the flood does otherwise.
// Phase B repeats the contest across a fabric link whose remote consumer
// is the shared bottleneck: the admission quota keeps total inflow under
// the consumer's capacity (so the credit throttle never engages and the
// well tenant's cross-fabric p99 holds the same 3× bar), and a
// weights-only control — fair flushing on, admission off — collapses the
// link to prove the deficit-round-robin shed discipline charges evictions
// to the flooding source and none to the paced one.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/transport"
)

// e14Result is the hostile-tenant isolation experiment's outcome.
type e14Result struct {
	// Phase A: shared Range, local dispatch.
	localSoloP99    time.Duration // well tenant alone
	localQuotaP99   time.Duration // hostile flood, quota on
	localControlP99 time.Duration // hostile flood, quota off

	// Hostile admission accounting from the quota run: offered events at
	// the publish edge, admitted past the token bucket, the expected
	// admission (burst + rate × flood duration) and the relative clip
	// error |admitted − expected| / expected.
	floodOffered  uint64
	floodAdmitted uint64
	floodExpected float64
	floodClipErr  float64
	// quotaGauge reports whether the hostile source surfaced in the
	// Range's eventbus.quota.rejected.from.* stats gauges.
	quotaGauge bool

	// Phase B: shared fabric, remote consumer is the bottleneck.
	remoteSoloP99    time.Duration
	remoteQuotaP99   time.Duration
	remoteControlP99 time.Duration // weights-only control (no admission)
	// Shed attribution from the weights-only collapse: DRR evictions
	// charged to the hostile source and to the well-behaved one.
	shedHostile uint64
	shedWell    uint64
	// controlThrottled reports whether the fan path actually engaged its
	// credit throttle during the collapse (the shed discipline's
	// precondition).
	controlThrottled bool
}

// e14Latencies collects per-event delivery latencies for one tenant.
type e14Latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *e14Latencies) note(e event.Event) {
	ns, ok := e14SentNs(e)
	if !ok {
		return
	}
	d := time.Duration(time.Now().UnixNano() - ns)
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *e14Latencies) p99() time.Duration {
	l.mu.Lock()
	ds := append([]time.Duration(nil), l.ds...)
	l.mu.Unlock()
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)*99)/100]
}

// e14SentNs extracts the send timestamp a well-tenant event carries. Local
// dispatch hands the payload back untouched (int64); the fabric path
// round-trips it through JSON (float64).
func e14SentNs(e event.Event) (int64, bool) {
	switch v := e.Payload["sent"].(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}

func e14WellEvent(src guid.GUID, seq uint64) event.Event {
	now := time.Now()
	return event.New(ctxtype.TemperatureCelsius, src, seq, now,
		map[string]any{"value": 294.0, "sent": now.UnixNano()})
}

// e14Flood publishes hostile batches of 64 every millisecond (~60k events/s
// offered, 30× the quota) until stop flips, counting the offered events. The
// inter-batch sleep keeps the flood an event flood rather than a CPU-starvation
// attack: on a small host a spin loop would monopolize the scheduler and
// degrade the well tenant through the OS, which no dispatch-layer quota can
// prevent and which is not what E14 measures.
func e14Flood(pub func([]event.Event) error, src guid.GUID, stop *atomic.Bool, offered *atomic.Uint64) {
	var seq uint64
	buf := make([]event.Event, 0, 64)
	for !stop.Load() {
		buf = buf[:0]
		now := time.Now()
		for i := 0; i < 64; i++ {
			seq++
			buf = append(buf, event.New(ctxtype.TemperatureCelsius, src, seq, now,
				map[string]any{"value": 512.0}))
		}
		offered.Add(64)
		if pub(buf) != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// e14SlowConsumer returns a handler that burns amortized perEvent time per
// hostile event, sleeping in every-16th-event chunks so timer-wakeup
// overhead does not swamp the budget on a single-core host.
func e14SlowConsumer(perEvent time.Duration) func(event.Event) {
	var n atomic.Uint64
	return func(event.Event) {
		if n.Add(1)%16 == 0 {
			time.Sleep(16 * perEvent)
		}
	}
}

// e14Pace publishes one well-tenant event every 2ms for the window.
func e14Pace(pub func([]event.Event) error, src guid.GUID, window time.Duration) {
	var seq uint64
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		seq++
		if pub([]event.Event{e14WellEvent(src, seq)}) != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// e14Local runs one Phase A window on a fresh shared Range and returns the
// well tenant's p99, taken from its own Source-filtered subscription. The
// well tenant paces; the hostile tenant floods if contended. A rate of 0
// turns the admission quota off; a non-nil acct receives the hostile
// tenant's admission accounting.
func e14Local(rate float64, burst, batch int, maxDelay time.Duration, contended bool, acct *e14Result) (time.Duration, error) {
	wellSrc := guid.New(guid.KindDevice)
	hotSrc := guid.New(guid.KindDevice)
	cfg := server.Config{
		Name:           "e14-local",
		Coverage:       location.Path("campus/e14-local"),
		BatchMaxEvents: batch,
		BatchMaxDelay:  maxDelay,
	}
	if rate > 0 {
		cfg.PublisherQuota = server.PublisherQuota{Rate: rate, Burst: burst}
	}
	rng := server.New(cfg)
	defer rng.Close()

	lat := &e14Latencies{}
	if _, err := rng.Mediator().Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.TemperatureCelsius, Source: wellSrc},
		lat.note, mediator.SubOptions{}); err != nil {
		return 0, err
	}
	// The hostile tenant has its own (slow) consumer: realistic floods are
	// published to be read, and the slow ring is what unquota'd dispatch
	// contends on.
	if _, err := rng.Mediator().Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.TemperatureCelsius, Source: hotSrc},
		e14SlowConsumer(50*time.Microsecond),
		mediator.SubOptions{}); err != nil {
		return 0, err
	}

	const window = 1200 * time.Millisecond
	var stop atomic.Bool
	var offered atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	if contended {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e14Flood(func(evs []event.Event) error {
				return rng.PublishAllFrom(hotSrc, evs)
			}, hotSrc, &stop, &offered)
		}()
	}
	e14Pace(func(evs []event.Event) error {
		return rng.PublishAllFrom(wellSrc, evs)
	}, wellSrc, window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	time.Sleep(100 * time.Millisecond) // drain the delivery rings

	if acct != nil {
		acct.floodOffered = offered.Load()
		acct.floodAdmitted = offered.Load() - rng.QuotaRejectedFor(hotSrc)
		acct.floodExpected = float64(burst) + rate*elapsed.Seconds()
		if acct.floodExpected > 0 {
			acct.floodClipErr = math.Abs(float64(acct.floodAdmitted)-acct.floodExpected) / acct.floodExpected
		}
		for k, v := range rng.StatsMap() {
			if strings.HasPrefix(k, "eventbus.quota.rejected.from.") && v > 0 {
				acct.quotaGauge = true
			}
		}
	}
	return lat.p99(), nil
}

// e14Remote runs one Phase B window: both tenants publish into Range A,
// whose fabric fans out to Range B's remote subscriber — the shared
// bottleneck (its hostile-event handler burns 100µs per event). The well
// tenant's p99 is measured at B.
func e14Remote(quota server.PublisherQuota, batch int, maxDelay time.Duration,
	contended bool) (p99 time.Duration, shedWell, shedHot uint64, throttled bool, err error) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer func() { _ = net.Close() }()
	wellSrc := guid.New(guid.KindDevice)
	hotSrc := guid.New(guid.KindDevice)
	perEvent := 100 * time.Microsecond
	if quota.Weights != nil {
		// The caller's weight map is keyed by role; rebuild it on the
		// per-run GUIDs.
		quota.Weights = map[guid.GUID]int{wellSrc: 1, hotSrc: 1}
	}
	if quota.Weights != nil && quota.Rate <= 0 {
		// The weights-only collapse control exists to prove shed
		// attribution, so the bottleneck must actually collapse during the
		// window even on a heavily loaded host: a slower consumer and a
		// smaller batch (and with it a smaller throttle buffer) turn the
		// overflow from timing-lucky into certain.
		perEvent = 400 * time.Microsecond
		if batch > 8 {
			batch = 8
		}
	}

	rngA := server.New(server.Config{
		Name:           "e14-a",
		Coverage:       location.Path("campus/e14-a"),
		BatchMaxEvents: batch,
		BatchMaxDelay:  maxDelay,
		PublisherQuota: quota,
	})
	defer rngA.Close()
	rngB := server.New(server.Config{
		Name:           "e14-b",
		Coverage:       location.Path("campus/e14-b"),
		BatchMaxEvents: batch,
		BatchMaxDelay:  maxDelay,
	})
	defer rngB.Close()

	fA, err := scinet.NewFabric(rngA, net, nil)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer func() { _ = fA.Close() }()
	fB, err := scinet.NewFabric(rngB, net, nil)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer func() { _ = fB.Close() }()
	if err := fB.Join(fA.NodeID()); err != nil {
		return 0, 0, 0, false, err
	}

	lat := &e14Latencies{}
	slow := e14SlowConsumer(perEvent)
	if _, err := fB.SubscribeRemote(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.TemperatureCelsius},
		func(e event.Event) {
			if e.Source == wellSrc {
				lat.note(e)
				return
			}
			slow(e)
		}); err != nil {
		return 0, 0, 0, false, err
	}
	if err := waitUntil(5*time.Second, "e14: publisher knows the remote interest",
		func() bool { return len(fA.Interests()[fB.NodeID()]) > 0 }); err != nil {
		return 0, 0, 0, false, err
	}

	const window = 1200 * time.Millisecond
	var stop atomic.Bool
	var offered atomic.Uint64
	var wg sync.WaitGroup
	if contended {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e14Flood(func(evs []event.Event) error {
				return rngA.PublishAllFrom(hotSrc, evs)
			}, hotSrc, &stop, &offered)
		}()
	}
	e14Pace(func(evs []event.Event) error {
		return rngA.PublishAllFrom(wellSrc, evs)
	}, wellSrc, window)
	stop.Store(true)
	wg.Wait()
	time.Sleep(500 * time.Millisecond) // drain the link and the rings

	sheds := rngA.FlowStats().ShedBySource()
	return lat.p99(), sheds[wellSrc], sheds[hotSrc],
		rngA.FlowStats().Throttled.Value() > 0, nil
}

// runE14 runs both phases of the hostile-tenant isolation experiment.
// Bars: the hostile tenant surfaces in the quota gauges, and the fair shed
// never charges the paced tenant; on real builds, hostile admission is
// clipped to the quota within ±10%, the well tenant's p99 stays within 3×
// its solo baseline on the shared Range and across the shared fabric, and
// the weights-only collapse throttles and sheds from the hostile source.
func runE14(Scale, int64) ([]Table, error) {
	const rate, batch, maxDelay = 2000.0, 64, 5 * time.Millisecond
	const burst = int(rate / 20)
	r := &e14Result{}
	var err error

	// Phase A: shared Range.
	if r.localSoloP99, err = e14Local(rate, burst, batch, maxDelay, false, nil); err != nil {
		return nil, err
	}
	if r.localQuotaP99, err = e14Local(rate, burst, batch, maxDelay, true, r); err != nil {
		return nil, err
	}
	if r.localControlP99, err = e14Local(0, 0, batch, maxDelay, true, nil); err != nil {
		return nil, err
	}

	// Phase B: shared fabric link. The quota runs clip hostile admission
	// below the remote consumer's capacity, so the credit throttle never
	// engages; the weights-only control lets the flood through to collapse
	// the link and exercise the DRR shed discipline.
	admission := server.PublisherQuota{Rate: rate, Burst: burst}
	if r.remoteSoloP99, _, _, _, err = e14Remote(admission, batch, maxDelay, false); err != nil {
		return nil, err
	}
	if r.remoteQuotaP99, _, _, _, err = e14Remote(admission, batch, maxDelay, true); err != nil {
		return nil, err
	}
	if r.remoteControlP99, r.shedWell, r.shedHostile, r.controlThrottled, err = e14Remote(
		server.PublisherQuota{Weights: map[guid.GUID]int{}}, batch, maxDelay, true); err != nil {
		return nil, err
	}

	ratio := func(d, solo time.Duration) string {
		if solo <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(d)/float64(solo))
	}
	t := Table{
		Title: "per-publisher quota + weighted-fair flushing vs a hostile tenant",
		Header: []string{"phase", "solo p99", "quota p99", "×solo", "no-quota p99",
			"clip err", "shed hot/well", "throttled"},
		Rows: [][]string{
			{"shared range", fmt.Sprint(r.localSoloP99), fmt.Sprint(r.localQuotaP99), ratio(r.localQuotaP99, r.localSoloP99),
				fmt.Sprint(r.localControlP99), fmt.Sprintf("%.3f", r.floodClipErr), "-", "-"},
			{"shared fabric", fmt.Sprint(r.remoteSoloP99), fmt.Sprint(r.remoteQuotaP99), ratio(r.remoteQuotaP99, r.remoteSoloP99),
				fmt.Sprint(r.remoteControlP99), "-", fmt.Sprintf("%d/%d", r.shedHostile, r.shedWell), fmt.Sprint(r.controlThrottled)},
		},
	}
	errs := []error{
		bar(r.localSoloP99 > 0 && r.remoteSoloP99 > 0, "e14: solo baselines unmeasured"),
		bar(r.floodOffered > 0 && r.floodAdmitted > 0, "e14: hostile flood unmeasured"),
		bar(r.quotaGauge, "e14: hostile source never surfaced in eventbus.quota.rejected.from.* gauges"),
		bar(r.shedWell == 0, "e14: fair shed charged %d events to the well-behaved source", r.shedWell),
	}
	// The timing bars hold on real builds only: under -race every handler
	// and the flood loop slow 10-20× and the p99 ratios measure scheduler
	// noise, not the isolation mechanism (which the eventbus, flow and
	// scinet -race suites cover deterministically). Micro-scale baselines
	// make a pure p99 ratio noise-dominated, so each 3× bar carries a small
	// absolute floor.
	if !raceEnabled {
		errs = append(errs,
			bar(r.floodClipErr <= 0.10, "e14: hostile admission off quota by %.1f%% (admitted %d, expected %.0f)",
				100*r.floodClipErr, r.floodAdmitted, r.floodExpected),
			bar(r.localQuotaP99 <= 3*r.localSoloP99 || r.localQuotaP99 <= 10*time.Millisecond,
				"e14: shared-range p99 %v vs solo %v: hostile tenant leaked through the quota", r.localQuotaP99, r.localSoloP99),
			bar(r.remoteQuotaP99 <= 3*r.remoteSoloP99 || r.remoteQuotaP99 <= 50*time.Millisecond,
				"e14: shared-fabric p99 %v vs solo %v: hostile tenant leaked through the quota", r.remoteQuotaP99, r.remoteSoloP99),
			bar(r.controlThrottled, "e14: weights-only control never engaged the credit throttle"),
			bar(r.shedHostile > 0, "e14: collapse shed nothing from the hostile source"))
	}
	return []Table{t}, errors.Join(errs...)
}
