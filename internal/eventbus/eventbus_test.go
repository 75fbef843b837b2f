package eventbus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
)

var t0 = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

func mkEvent(t ctxtype.Type, seq uint64) event.Event {
	return event.New(t, guid.New(guid.KindDevice), seq, t0, nil)
}

// collect subscribes and accumulates delivered events into a slice guarded
// by a mutex, returning the accessor.
func collect(t *testing.T, b *Bus, f event.Filter, opts ...SubOption) (*Subscription, func() []event.Event) {
	t.Helper()
	var mu sync.Mutex
	var got []event.Event
	sub, err := b.Subscribe(f, func(e event.Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sub, func() []event.Event {
		mu.Lock()
		defer mu.Unlock()
		out := make([]event.Event, len(got))
		copy(out, got)
		return out
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestPublishDeliversToMatchingSubs(t *testing.T) {
	b := New(nil)
	defer b.Close()
	_, gotTemp := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius})
	_, gotAll := collect(t, b, event.Filter{})
	_, gotPrinter := collect(t, b, event.Filter{Type: ctxtype.PrinterStatus})

	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(gotTemp()) == 1 && len(gotAll()) == 1 })
	if len(gotPrinter()) != 0 {
		t.Fatal("printer sub received temperature event")
	}
}

func TestPublishValidates(t *testing.T) {
	b := New(nil)
	defer b.Close()
	if err := b.Publish(event.Event{}); err == nil {
		t.Fatal("invalid event accepted")
	}
}

func TestSubscribeNilHandler(t *testing.T) {
	b := New(nil)
	defer b.Close()
	if _, err := b.Subscribe(event.Filter{}, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestOrderingPerSubscription(t *testing.T) {
	b := New(nil)
	defer b.Close()
	_, got := collect(t, b, event.Filter{}, WithQueueLen(2048))
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(got()) == n })
	for i, e := range got() {
		if e.Seq != uint64(i) {
			t.Fatalf("delivery out of order at %d: seq %d", i, e.Seq)
		}
	}
}

func TestDropOldestPolicy(t *testing.T) {
	b := New(nil)
	defer b.Close()
	block := make(chan struct{})
	var mu sync.Mutex
	var got []uint64
	first := make(chan struct{})
	var once sync.Once
	_, err := b.Subscribe(event.Filter{}, func(e event.Event) {
		once.Do(func() { close(first) })
		<-block
		mu.Lock()
		got = append(got, e.Seq)
		mu.Unlock()
	}, WithQueueLen(2))
	if err != nil {
		t.Fatal(err)
	}
	// Publish one event and wait until the handler holds it (so the queue is
	// empty), then overfill the queue deterministically.
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 0)); err != nil {
		t.Fatal(err)
	}
	<-first
	for i := 1; i <= 4; i++ { // queue cap 2: seqs 1,2 then 3 evicts 1, 4 evicts 2
		if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 0 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("DropOldest delivered %v, want [0 3 4]", got)
	}
	if s := b.Stats(); s.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", s.Dropped)
	}
}

func TestOneShotSubscription(t *testing.T) {
	b := New(nil)
	defer b.Close()
	var calls atomic.Int32
	_, err := b.Subscribe(event.Filter{}, func(event.Event) {
		calls.Add(1)
	}, OneShot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = b.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i)))
	}
	waitFor(t, func() bool { return calls.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // would reveal extra deliveries
	if calls.Load() != 1 {
		t.Fatalf("one-shot delivered %d times", calls.Load())
	}
	waitFor(t, func() bool { return b.Stats().Subs == 0 })
}

func TestCancelStopsDelivery(t *testing.T) {
	b := New(nil)
	defer b.Close()
	sub, got := collect(t, b, event.Filter{})
	_ = b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1))
	waitFor(t, func() bool { return len(got()) == 1 })
	sub.Cancel()
	sub.Cancel() // idempotent
	_ = b.Publish(mkEvent(ctxtype.TemperatureCelsius, 2))
	time.Sleep(20 * time.Millisecond)
	if len(got()) != 1 {
		t.Fatalf("delivered after cancel: %d events", len(got()))
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	b := New(nil)
	collect(t, b, event.Filter{})
	b.Close()
	b.Close() // idempotent
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1)); err != ErrClosed {
		t.Fatalf("Publish after close: %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe(event.Filter{}, func(event.Event) {}); err != ErrClosed {
		t.Fatalf("Subscribe after close: %v, want ErrClosed", err)
	}
}

func TestSemanticEquivalenceDelivery(t *testing.T) {
	b := New(ctxtype.NewRegistry())
	defer b.Close()
	_, got := collect(t, b, event.Filter{Type: ctxtype.LocationSightingDoor})
	// A WLAN sighting must reach a door-sighting subscriber via equivalence.
	_ = b.Publish(mkEvent(ctxtype.LocationSightingWLAN, 1))
	waitFor(t, func() bool { return len(got()) == 1 })
}

func TestConcurrentPublishersAndSubscribers(t *testing.T) {
	defer leak.Check(t)()
	b := New(nil)
	defer b.Close()
	const pubs, perPub = 8, 200
	var delivered atomic.Int64
	for i := 0; i < 4; i++ {
		_, err := b.Subscribe(event.Filter{}, func(event.Event) {
			delivered.Add(1)
		}, WithQueueLen(pubs*perPub))
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return delivered.Load() == 4*pubs*perPub })
	s := b.Stats()
	if s.Published != pubs*perPub || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSubscriptionAccessors(t *testing.T) {
	b := New(nil)
	defer b.Close()
	owner := guid.New(guid.KindApplication)
	f := event.Filter{Type: ctxtype.PathRoute}
	sub, _ := collect(t, b, f, WithOwner(owner))
	if sub.ID().IsNil() || sub.ID().Kind() != guid.KindSubscription {
		t.Fatal("bad subscription id")
	}
	if sub.Owner() != owner {
		t.Fatal("owner not recorded")
	}
	if sub.Filter().Type != ctxtype.PathRoute {
		t.Fatal("filter not recorded")
	}
	if sub.String() == "" {
		t.Fatal("empty String")
	}
	if sub.OneShot() {
		t.Fatal("OneShot set without the option")
	}
	if n := b.Stats().Subs; n != 1 {
		t.Fatalf("Subs = %d, want 1", n)
	}
}

// BenchmarkPublish measures one Publish across total-subscription counts.
// In exact mode each subscriber filters on its own concrete type and every
// publish matches one of them, so an indexed dispatch costs the same at
// every count, with 0 allocs/op. In wildcard mode every subscriber matches
// every event, so the cost grows with the count.
func BenchmarkPublish(b *testing.B) {
	for _, mode := range []string{"exact", "wildcard"} {
		for _, subs := range []int{1, 100, 10000} {
			b.Run(fmt.Sprintf("%s/subs=%d", mode, subs), func(b *testing.B) {
				bus := New(nil)
				defer bus.Close()
				for i := 0; i < subs; i++ {
					f := event.Filter{Type: ctxtype.Type(fmt.Sprintf("bench.sub%d", i))}
					if mode == "wildcard" {
						f = event.Filter{}
					}
					if _, err := bus.Subscribe(f, func(event.Event) {}, WithQueueLen(64)); err != nil {
						b.Fatal(err)
					}
				}
				e := mkEvent("bench.sub0", 0)
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
			})
		}
	}
}
