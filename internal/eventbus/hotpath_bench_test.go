package eventbus

// Allocation cross-checks for this package's //lint:hotpath annotations
// (Bus.dispatchRuns, Bus.lookupKeys, Subscription.enqueueRun,
// Subscription.drain). The static hotpath analyzer
// proves the absence of allocating constructs up to its //lint:allow
// escapes; these tests prove the escapes were justified — the warmed
// steady-state publish path really is allocation-free. internal/analysis/hotpath's registry test fails if an
// annotation exists without a covering check here.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// parkedBus builds a bus with one exact-tier match-all subscription whose
// delivery loop is parked inside the handler, so nothing races the
// measured publisher, and returns the warmed batch to publish. cleanup
// unparks the handler and closes the bus.
func parkedBus(t testing.TB) (b *Bus, run []event.Event, pub guid.GUID) {
	t.Helper()
	b = New(nil)
	entered := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	_, err := b.SubscribeBatch(event.Filter{Type: "bench.hot"}, func([]event.Event) {
		once.Do(func() { close(entered) })
		<-block
	}, WithQueueLen(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(block)
		b.Close()
	})

	pub = guid.New(guid.KindApplication)
	run = make([]event.Event, 4)
	for i := range run {
		run[i] = event.New("bench.hot", pub, uint64(i+1), t0, nil)
	}
	// Warm every install path the measured loop touches: the lookup-key
	// memo, the publisher's drop counter (the ring must be full so steady state
	// is the eviction path), the target-slice pool, and park the delivery
	// loop so drains never interleave with the measurement.
	for i := 0; i < 12; i++ {
		if err := b.PublishAllOwnedFrom(pub, run); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	return b, run, pub
}

// TestHotpathPublishZeroAlloc drives the full publish fan-out —
// dispatchRuns → lookupKeys → enqueueRun → the Drops ledger — through the
// exported owned-batch API and requires the warmed path to allocate
// nothing per batch.
func TestHotpathPublishZeroAlloc(t *testing.T) {
	b, run, pub := parkedBus(t)
	allocs := testing.AllocsPerRun(500, func() {
		if err := b.PublishAllOwnedFrom(pub, run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("publish path allocates %.1f times per batch, want 0", allocs)
	}
}

// TestHotpathLookupKeysZeroAlloc pins the memoised hit path of lookupKeys.
func TestHotpathLookupKeysZeroAlloc(t *testing.T) {
	b, _, _ := parkedBus(t)
	allocs := testing.AllocsPerRun(500, func() {
		if ks := b.lookupKeys("bench.hot"); len(ks) == 0 {
			t.Fatal("no keys for warmed type")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookupKeys hit path allocates %.1f times, want 0", allocs)
	}
}

// TestHotpathDrainZeroAlloc pins drain: with the delivery loop parked,
// publishing a run and draining the ring's run headers into a reused slice
// allocates nothing.
func TestHotpathDrainZeroAlloc(t *testing.T) {
	b, run, pub := parkedBus(t)
	sub := b.typeShard("bench.hot").exact["bench.hot"][0]
	// Empty whatever the warm-up left queued, so each call drains one run.
	runs, _ := sub.drain(make([][]event.Event, 0, 32))
	allocs := testing.AllocsPerRun(500, func() {
		if err := b.PublishAllOwnedFrom(pub, run); err != nil {
			t.Fatal(err)
		}
		runs, _ = sub.drain(runs[:0])
		if len(runs) != 1 || &runs[0][0] != &run[0] {
			t.Fatalf("drained %d runs, want the published run itself", len(runs))
		}
	})
	if allocs != 0 {
		t.Fatalf("publish + drain allocates %.1f times, want 0", allocs)
	}
}

// TestRingEntrySize: a ring slot is a run header plus its attribution key,
// not an inline event.
func TestRingEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 48 {
		t.Fatalf("entry is %d bytes, want <= 48", n)
	}
}

// TestPublishAllocsPerCall: Publish costs one allocation per call — its
// one-event run, shared by every matching subscription — however many
// subscriptions match.
func TestPublishAllocsPerCall(t *testing.T) {
	for _, nsubs := range []int{1, 64} {
		t.Run(fmt.Sprint("subs=", nsubs), func(t *testing.T) {
			b := New(nil)
			block := make(chan struct{})
			var entered sync.WaitGroup
			entered.Add(nsubs)
			for i := 0; i < nsubs; i++ {
				var once sync.Once
				if _, err := b.Subscribe(event.Filter{Type: "bench.hot"}, func(event.Event) {
					once.Do(entered.Done)
					<-block
				}, WithQueueLen(8)); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() {
				close(block)
				b.Close()
			})
			e := event.New("bench.hot", guid.New(guid.KindDevice), 1, t0, nil)
			// Warm up to the steady state: every loop parked, every ring
			// full, so each publish takes the eviction path.
			for i := 0; i < 16; i++ {
				if err := b.Publish(e); err != nil {
					t.Fatal(err)
				}
			}
			entered.Wait()
			allocs := testing.AllocsPerRun(500, func() {
				if err := b.Publish(e); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("Publish allocates %.1f times per call with %d subscribers, want <= 1", allocs, nsubs)
			}
		})
	}
}

// TestSubscribeBatchOneRunInPlace: a one-run backlog reaches a batch
// handler as the published run itself, not a copy.
func TestSubscribeBatchOneRunInPlace(t *testing.T) {
	b := New(nil)
	defer b.Close()
	got := make(chan []event.Event, 1)
	if _, err := b.SubscribeBatch(event.Filter{Type: "bench.hot"}, func(evs []event.Event) {
		got <- evs
	}); err != nil {
		t.Fatal(err)
	}
	src := guid.New(guid.KindDevice)
	owned := []event.Event{
		event.New("bench.hot", src, 1, t0, nil),
		event.New("bench.hot", src, 2, t0, nil),
	}
	if err := b.PublishAllOwnedFrom(guid.Nil, owned); err != nil {
		t.Fatal(err)
	}
	var evs []event.Event
	select {
	case evs = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	if len(evs) != len(owned) || &evs[0] != &owned[0] {
		t.Fatalf("handler got %d events at %p, want the published run at %p", len(evs), &evs[0], &owned[0])
	}
}

func BenchmarkHotpathPublishOwned(b *testing.B) {
	bus, run, pub := parkedBus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bus.PublishAllOwnedFrom(pub, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathFanout is the local-fanout benchmark workload in
// miniature: 64 leaf types under 8 zones, 8 exact subscriptions per leaf
// plus one ancestor subscription per zone, all with per-event handlers, fed
// 32-event mixed-type chunks by PublishAll in a closed loop of at most 4096
// deliveries outstanding. It reports the cost per published event, delivery
// included.
func BenchmarkHotpathFanout(b *testing.B) {
	const (
		zones    = 8
		rooms    = 8
		perLeaf  = 8
		chunkLen = 32
		window   = 4096
		queueLen = 1024
		nchunks  = 64 // distinct chunks the stream cycles through
	)
	bus := New(nil)
	defer bus.Close()
	var delivered atomic.Uint64
	wake := make(chan struct{}, 1)
	h := func(event.Event) {
		if delivered.Add(1)%256 == 0 {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}
	var leaves []ctxtype.Type
	for z := 0; z < zones; z++ {
		zone := ctxtype.Type(fmt.Sprintf("bench.zone%d", z))
		if _, err := bus.Subscribe(event.Filter{Type: zone}, h, WithQueueLen(queueLen)); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < rooms; r++ {
			leaf := ctxtype.Type(fmt.Sprintf("%s.room%d", zone, r))
			leaves = append(leaves, leaf)
			for k := 0; k < perLeaf; k++ {
				if _, err := bus.Subscribe(event.Filter{Type: leaf}, h, WithQueueLen(queueLen)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	src := guid.New(guid.KindDevice)
	chunks := make([][]event.Event, nchunks)
	for c := range chunks {
		chunks[c] = make([]event.Event, chunkLen)
		for i := range chunks[c] {
			chunks[c][i] = event.New(leaves[rng.Intn(len(leaves))], src, uint64(c*chunkLen+i), t0, nil)
		}
	}
	// A discarded event is a delivery that will never come; counting drops
	// as settled keeps the closed loop from waiting on one.
	settled := func() uint64 { return delivered.Load() + bus.drops.Total() }
	var expected uint64
	publish := func(n int) {
		for expected > settled()+window {
			<-wake
		}
		if err := bus.PublishAll(chunks[n%nchunks]); err != nil {
			b.Fatal(err)
		}
		expected += chunkLen * (perLeaf + 1)
	}
	settle := func() {
		for settled() < expected {
			runtime.Gosched()
		}
	}
	// Warm up: start every ring and delivery loop before measuring.
	for n := 0; n < nchunks; n++ {
		publish(n)
	}
	settle()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		publish(n)
	}
	settle()
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(b.N * chunkLen)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
	b.ReportMetric(float64(bus.drops.Total())/events, "drops/event")
}
