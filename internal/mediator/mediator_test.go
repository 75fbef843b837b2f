package mediator

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

var t0 = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

func mkEvent(ty ctxtype.Type, seq uint64) event.Event {
	return event.New(ty, guid.New(guid.KindDevice), seq, t0, nil)
}

// ownedBy returns the live records owned by owner, ordered by id: the
// owner's share of Records.
func ownedBy(m *Mediator, owner guid.GUID) []Record {
	return slices.DeleteFunc(m.Records(), func(rec Record) bool { return rec.Owner != owner })
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

func TestSubscribePublishCancel(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	var got atomic.Int64
	rec, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus},
		func(event.Event) { got.Add(1) }, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Owner != owner || rec.ID.IsNil() {
		t.Fatalf("record = %+v", rec)
	}
	if err := m.Publish(mkEvent(ctxtype.PrinterStatus, 1)); err != nil {
		t.Fatal(err)
	}
	_ = m.Publish(mkEvent(ctxtype.PathRoute, 2)) // filtered out
	waitFor(t, func() bool { return got.Load() == 1 })

	if err := m.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(rec.ID); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("double cancel: %v", err)
	}
	_ = m.Publish(mkEvent(ctxtype.PrinterStatus, 3))
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatal("delivered after cancel")
	}
}

func TestSubscribeValidation(t *testing.T) {
	m := New(nil)
	defer m.Close()
	if _, err := m.Subscribe(guid.Nil, event.Filter{}, func(event.Event) {}, SubOptions{}); err == nil {
		t.Fatal("nil owner accepted")
	}
	if _, err := m.Subscribe(guid.New(guid.KindEntity), event.Filter{}, nil, SubOptions{}); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestOneShotRemovesRecord(t *testing.T) {
	m := New(nil)
	defer m.Close()
	var got atomic.Int64
	rec, err := m.Subscribe(guid.New(guid.KindApplication), event.Filter{},
		func(event.Event) { got.Add(1) }, SubOptions{OneShot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OneShot {
		t.Fatal("record not marked one-shot")
	}
	for i := 0; i < 3; i++ {
		_ = m.Publish(mkEvent(ctxtype.PrinterStatus, uint64(i)))
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	waitFor(t, func() bool { return m.Len() == 0 })
	if _, ok := m.Get(rec.ID); ok {
		t.Fatal("one-shot record still present")
	}
}

func TestCancelOwned(t *testing.T) {
	m := New(nil)
	defer m.Close()
	bob := guid.New(guid.KindPerson)
	john := guid.New(guid.KindPerson)
	for i := 0; i < 3; i++ {
		if _, err := m.Subscribe(bob, event.Filter{}, func(event.Event) {}, SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Subscribe(john, event.Filter{}, func(event.Event) {}, SubOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(ownedBy(m, bob)) != 3 {
		t.Fatal("bob does not own 3 records")
	}
	if n := m.CancelOwned(bob); n != 3 {
		t.Fatalf("CancelOwned = %d", n)
	}
	if m.Len() != 1 || len(ownedBy(m, bob)) != 0 || len(ownedBy(m, john)) != 1 {
		t.Fatal("ownership bookkeeping broken")
	}
	if n := m.CancelOwned(bob); n != 0 {
		t.Fatalf("second CancelOwned = %d, want 0", n)
	}
}

// TestCancelByRecordID: a graph of subscriptions is torn down by cancelling
// the ids its Subscribe calls returned, the way the configuration runtime
// does; the owner's other subscriptions stay, and a second cancel of the
// same id reports ErrUnknownSubscription.
func TestCancelByRecordID(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	var graph []guid.GUID
	for i := 0; i < 2; i++ {
		rec, err := m.Subscribe(owner, event.Filter{}, func(event.Event) {}, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		graph = append(graph, rec.ID)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Subscribe(owner, event.Filter{}, func(event.Event) {}, SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range graph {
		if err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 || len(ownedBy(m, owner)) != 2 {
		t.Fatalf("Len = %d, owned = %d after teardown, want 2 and 2", m.Len(), len(ownedBy(m, owner)))
	}
	if err := m.Cancel(graph[0]); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("second cancel: %v, want ErrUnknownSubscription", err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d after a second cancel, want 2", m.Len())
	}
}

func TestSemanticEquivalenceThroughMediator(t *testing.T) {
	m := New(ctxtype.NewRegistry())
	defer m.Close()
	var got atomic.Int64
	if _, err := m.Subscribe(guid.New(guid.KindApplication),
		event.Filter{Type: ctxtype.LocationSightingDoor},
		func(event.Event) { got.Add(1) }, SubOptions{}); err != nil {
		t.Fatal(err)
	}
	_ = m.Publish(mkEvent(ctxtype.LocationSightingWLAN, 1))
	waitFor(t, func() bool { return got.Load() == 1 })
}

func TestRecordsSortedAndGet(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	var ids []guid.GUID
	for i := 0; i < 10; i++ {
		rec, err := m.Subscribe(owner, event.Filter{}, func(event.Event) {}, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	recs := m.Records()
	if len(recs) != 10 {
		t.Fatalf("Records len = %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if !guid.Less(recs[i-1].ID, recs[i].ID) {
			t.Fatal("Records not sorted")
		}
	}
	if _, ok := m.Get(ids[0]); !ok {
		t.Fatal("Get missed live record")
	}
	if _, ok := m.Get(guid.New(guid.KindSubscription)); ok {
		t.Fatal("Get found phantom record")
	}
}

func TestStatsAndConcurrency(t *testing.T) {
	m := New(nil)
	defer m.Close()
	var delivered atomic.Int64
	const subs = 4
	for i := 0; i < subs; i++ {
		if _, err := m.Subscribe(guid.New(guid.KindApplication), event.Filter{},
			func(event.Event) { delivered.Add(1) }, SubOptions{QueueLen: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	const pubs, per = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return delivered.Load() == subs*pubs*per })
	st := m.Stats()
	if st.Published != pubs*per || st.Subs != subs {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSubscribeSources: a source-set subscription records the sorted,
// deduplicated set guid.NewSorted built from the caller's slice, a later
// write to that slice or to a slice Members handed out reaches no Record,
// delivery follows the set, and a filter Source alongside a set is refused
// without leaving a record behind.
func TestSubscribeSources(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindSoftware)
	a, b := guid.New(guid.KindDevice), guid.New(guid.KindDevice)
	want := []guid.GUID{a, b}
	guid.Sort(want)
	caller := []guid.GUID{b, a, b}
	var got atomic.Int64
	rec, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus}, func(event.Event) { got.Add(1) },
		SubOptions{Sources: guid.NewSorted(caller...)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Sources.Members(), want) {
		t.Fatalf("Subscribe record sources = %v, want %v", rec.Sources.Members(), want)
	}
	caller[0], caller[1] = guid.Nil, guid.Nil
	rec.Sources.Members()[0] = guid.Nil
	recs := ownedBy(m, owner)
	if len(recs) != 1 || !slices.Equal(recs[0].Sources.Members(), want) {
		t.Fatalf("owned records = %+v, want sources %v", recs, want)
	}
	recs[0].Sources.Members()[0] = guid.Nil
	if all := m.Records(); len(all) != 1 || !slices.Equal(all[0].Sources.Members(), want) {
		t.Fatalf("Records = %+v, want sources %v", all, want)
	}

	for i, src := range []guid.GUID{a, guid.New(guid.KindDevice), b} {
		if err := m.Publish(event.New(ctxtype.PrinterStatus, src, uint64(i), t0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 2 })

	if _, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus, Source: a}, func(event.Event) {},
		SubOptions{Sources: guid.NewSorted(want...)}); err == nil {
		t.Fatal("filter Source together with Sources accepted")
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d after a refused subscribe, want 1", n)
	}
}
