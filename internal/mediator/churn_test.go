package mediator

// Race-hardened lifecycle tests for the indexed Mediator: concurrent
// teardown of subscription graphs by record id vs. publish, departure handling under load, and
// one-shot record cleanup racing its own delivery. Run with -race.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// TestConcurrentTeardownVsPublish rebuilds and tears down subscription
// graphs, cancelling each by the record ids its Subscribe calls returned,
// while publishers hammer the bus. Every subscription must be gone at the
// end and the table must agree with the bus.
func TestConcurrentTeardownVsPublish(t *testing.T) {
	m := New(ctxtype.NewRegistry(), WithShards(4))
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	const graphs = 4

	stop := make(chan struct{})
	var delivered atomic.Uint64
	var pubWG, rewireWG sync.WaitGroup

	// Publishers: a mix of indexed and wildcard-matched traffic.
	for p := 0; p < 3; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			src := guid.New(guid.KindDevice)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := event.New(ctxtype.TemperatureCelsius, src, i, time.Now(), nil)
				if err := m.Publish(e); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}()
	}

	// Rewirers: each cycles one graph — subscribe it, cancel its records,
	// repeat — exactly what the configuration runtime does on repair.
	for g := 0; g < graphs; g++ {
		rewireWG.Add(1)
		go func() {
			defer rewireWG.Done()
			ids := make([]guid.GUID, 3)
			for round := 0; round < 100; round++ {
				for j := range ids {
					f := event.Filter{Type: ctxtype.TemperatureCelsius}
					if j == 2 {
						f = event.Filter{} // one wildcard edge per graph
					}
					rec, err := m.Subscribe(owner, f, func(event.Event) {
						delivered.Add(1)
					}, SubOptions{QueueLen: 4})
					if err != nil {
						t.Errorf("Subscribe: %v", err)
						return
					}
					ids[j] = rec.ID
				}
				for _, id := range ids {
					if err := m.Cancel(id); err != nil {
						t.Errorf("Cancel: %v", err)
						return
					}
				}
			}
		}()
	}

	// Wait for the rewirers (they do bounded work), then stop publishers.
	done := make(chan struct{})
	go func() {
		rewireWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("teardown churn deadlocked")
	}
	close(stop)
	pubWG.Wait()

	if n := m.Len(); n != 0 {
		t.Fatalf("%d records survived teardown churn", n)
	}
	waitFor(t, func() bool { return m.Stats().Subs == 0 })
	if rs := ownedBy(m, owner); len(rs) != 0 {
		t.Fatalf("owner still has %d records", len(rs))
	}
}

// TestConcurrentDepartureVsPublish races CancelOwned (entity departure)
// against publishes and fresh subscriptions from the same owner.
func TestConcurrentDepartureVsPublish(t *testing.T) {
	m := New(nil, WithShards(2))
	defer m.Close()
	owners := []guid.GUID{guid.New(guid.KindPerson), guid.New(guid.KindPerson)}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := owners[w%len(owners)]
			src := guid.New(guid.KindDevice)
			for i := 0; i < 200; i++ {
				if _, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus},
					func(event.Event) {}, SubOptions{QueueLen: 2}); err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				if err := m.Publish(event.New(ctxtype.PrinterStatus, src, uint64(i), time.Now(), nil)); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
				if i%5 == 0 {
					m.CancelOwned(owner)
				}
			}
			m.CancelOwned(owner)
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n != 0 {
		t.Fatalf("%d records survived departure churn", n)
	}
	waitFor(t, func() bool { return m.Stats().Subs == 0 })
}

// TestOneShotDeliveryRace publishes the matching event from another
// goroutine the instant Subscribe is issued: the one-shot record must be
// removed exactly once even when delivery beats Subscribe's return.
func TestOneShotDeliveryRace(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	src := guid.New(guid.KindDevice)

	for i := 0; i < 100; i++ {
		fired := make(chan struct{})
		stop := make(chan struct{})
		var pubs sync.WaitGroup
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Publish(event.New(ctxtype.PathRoute, src, 1, time.Now(), nil))
				}
			}
		}()
		rec, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PathRoute},
			func(event.Event) { close(fired) }, SubOptions{OneShot: true})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("one-shot never fired")
		}
		close(stop)
		pubs.Wait()
		waitFor(t, func() bool {
			_, live := m.Get(rec.ID)
			return !live
		})
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("%d one-shot records leaked", n)
	}
}

// TestSubscribeCloseRace ensures a Subscribe racing Close either succeeds
// (and is torn down by Close) or reports the closed bus — never a leaked
// live record on a closed mediator.
func TestSubscribeCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		m := New(nil)
		owner := guid.New(guid.KindApplication)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := m.Subscribe(owner, event.Filter{}, func(event.Event) {},
					SubOptions{}); err != nil {
					return // closed underneath us: acceptable
				}
			}
		}()
		m.Close()
		wg.Wait()
		if n := m.Len(); n != 0 {
			t.Fatalf("iteration %d: %d records on closed mediator", i, n)
		}
		if s := m.Stats(); s.Subs != 0 {
			t.Fatalf("iteration %d: %d live bus subs on closed mediator", i, s.Subs)
		}
	}
}
