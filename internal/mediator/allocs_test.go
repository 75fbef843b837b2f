package mediator

import (
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// TestSubscribeCancelAllocs bounds the allocations of a configuration's
// location-shaped wiring: a door-sighting input fed by 68 producers
// through one source set, plus a batched root delivery, subscribed and
// cancelled again. Each subscription allocates what it keeps — the bus's
// Subscription, which the Mediator's table holds as it is — and the
// bookkeeping around it (the table entry, the bus options, the shared
// source set, the index list its type keeps once emptied) allocates
// nothing.
func TestSubscribeCancelAllocs(t *testing.T) {
	const budget = 2
	m := New(ctxtype.NewRegistry())
	defer m.Close()
	doors := make([]guid.GUID, 68)
	for i := range doors {
		doors[i] = guid.New(guid.KindDevice)
	}
	srcs := guid.NewSorted(doors...)
	consumer, app, root := guid.New(guid.KindSoftware), guid.New(guid.KindApplication), guid.New(guid.KindSoftware)
	in := event.Filter{Type: ctxtype.LocationSightingDoor}
	out := event.Filter{Type: ctxtype.LocationPosition, Source: root}
	allocs := testing.AllocsPerRun(200, func() {
		a, err := m.Subscribe(consumer, in, func(event.Event) {}, SubOptions{QueueLen: 1024, Sources: srcs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.SubscribeBatch(app, out, func([]event.Event) {}, SubOptions{QueueLen: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if m.Cancel(a.ID) != nil || m.Cancel(b.ID) != nil {
			t.Fatal("cancel failed")
		}
	})
	if allocs > budget {
		t.Fatalf("subscribe + cancel of an input and a root: %.0f allocations, budget %d", allocs, budget)
	}
	if m.Len() != 0 || len(ownedBy(m, consumer)) != 0 || len(ownedBy(m, app)) != 0 {
		t.Fatalf("Len %d after cancelling everything", m.Len())
	}
}
