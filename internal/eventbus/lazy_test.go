package eventbus

// Tests for lazily started delivery goroutines: a subscription runs no
// goroutine until its first event, and Cancel and Close of one that never
// received an event wait on nothing.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/leak"
)

// started reports whether the subscription's delivery goroutine was started.
func started(s *Subscription) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wake != nil
}

// closeWithin fails the test when Close does not return in time.
func closeWithin(t *testing.T, b *Bus) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestNoGoroutineWithoutEvents: subscribe / cancel churn with no events
// leaves the goroutine count where it was, and so do live subscriptions
// that never receive an event; Close of those returns at once.
func TestNoGoroutineWithoutEvents(t *testing.T) {
	defer leak.Check(t)()
	b := New(nil)
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		s, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {})
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines grew from %d to %d over 1000 subscribe/cancel pairs", base, n)
	}

	var live []*Subscription
	for i := 0; i < 1000; i++ {
		f := event.Filter{Type: ctxtype.TemperatureCelsius}
		if i%2 == 1 {
			f = event.Filter{Type: ctxtype.Wildcard}
		}
		s, err := b.SubscribeBatch(f, func([]event.Event) {}, OneShot())
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines grew from %d to %d with 1000 idle subscriptions", base, n)
	}
	for _, s := range live {
		if started(s) {
			t.Fatal("delivery goroutine started before the first event")
		}
	}
	closeWithin(t, b)
}

// TestFirstPublishStartsDelivery: the first event through either publish
// path starts delivery, for a one-shot subscription as for a standing one.
func TestFirstPublishStartsDelivery(t *testing.T) {
	defer leak.Check(t)()
	for _, c := range []struct {
		name    string
		oneShot bool
		batch   bool
	}{
		{"standing/publish", false, false},
		{"standing/run", false, true},
		{"oneshot/publish", true, false},
		{"oneshot/run", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := New(nil)
			defer b.Close()
			var opts []SubOption
			if c.oneShot {
				opts = append(opts, OneShot())
			}
			got := make(chan uint64, 4)
			sub, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(e event.Event) {
				got <- e.Seq
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if started(sub) {
				t.Fatal("delivery goroutine started at Subscribe")
			}
			e1, e2 := mkEvent(ctxtype.TemperatureCelsius, 1), mkEvent(ctxtype.TemperatureCelsius, 2)
			if c.batch {
				err = b.PublishAll([]event.Event{e1, e2})
			} else if err = b.Publish(e1); err == nil {
				err = b.Publish(e2)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := []uint64{1, 2}
			if c.oneShot {
				want = want[:1]
			}
			for _, seq := range want {
				select {
				case s := <-got:
					if s != seq {
						t.Fatalf("delivered seq %d, want %d", s, seq)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("first event not delivered")
				}
			}
			if c.oneShot {
				waitFor(t, sub.isClosed)
				if st := b.Stats(); st.Delivered != 1 {
					t.Fatalf("one-shot delivered %d events, want 1", st.Delivered)
				}
			}
		})
	}
}

// TestFirstPublishCancelCloseRace runs a subscription's first publish, its
// Cancel and Bus.Close concurrently (run with -race). Close must return,
// and every delivery goroutine a first event started must have exited.
func TestFirstPublishCancelCloseRace(t *testing.T) {
	defer leak.Check(t)()
	for round := 0; round < 50; round++ {
		b := New(nil, WithShards(2))
		subs := make([]*Subscription, 16)
		for i := range subs {
			var opts []SubOption
			if i%4 == 0 {
				opts = append(opts, OneShot())
			}
			s, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = s
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			_ = b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1))
		}()
		go func() {
			defer wg.Done()
			<-start
			_ = b.PublishAll([]event.Event{mkEvent(ctxtype.TemperatureCelsius, 2)})
		}()
		go func() {
			defer wg.Done()
			<-start
			for _, s := range subs[:len(subs)/2] {
				s.Cancel()
			}
		}()
		close(start)
		closeWithin(t, b)
		wg.Wait()
		for _, s := range subs {
			if !s.isClosed() {
				t.Fatal("subscription open after Close")
			}
		}
	}
}
