package mediator

import (
	"math/rand"
	"slices"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// TestSubscriptionTableChurnMatchesModel interleaves Subscribe, Cancel,
// one-shot firing and CancelOwned across many owners sharing two table
// stripes. After every step each owner's records in the table, Len and
// every CancelOwned count must equal a brute-force model: owner → the ids
// it holds.
func TestSubscriptionTableChurnMatchesModel(t *testing.T) {
	m := New(nil, WithShards(2))
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	owners := make([]guid.GUID, 12)
	for i := range owners {
		owners[i] = guid.New(guid.KindApplication)
	}
	model := make(map[guid.GUID][]guid.GUID)  // owner → live ids
	oneShots := make(map[guid.GUID]guid.GUID) // live one-shot id → the source that fires it
	var live []guid.GUID
	ownerOf := make(map[guid.GUID]guid.GUID)

	drop := func(id guid.GUID) {
		o := ownerOf[id]
		model[o] = slices.DeleteFunc(model[o], func(g guid.GUID) bool { return g == id })
		live = slices.DeleteFunc(live, func(g guid.GUID) bool { return g == id })
		delete(ownerOf, id)
		delete(oneShots, id)
	}
	check := func(step int, op string) {
		t.Helper()
		n := 0
		for _, o := range owners {
			want := slices.Clone(model[o])
			guid.Sort(want)
			var got []guid.GUID
			for _, rec := range ownedBy(m, o) {
				got = append(got, rec.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): owner's records = %v, model %v", step, op, got, want)
			}
			n += len(want)
		}
		if m.Len() != n {
			t.Fatalf("step %d (%s): Len = %d, model %d", step, op, m.Len(), n)
		}
	}

	for step := 0; step < 1500; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			op = "subscribe"
			o := owners[rng.Intn(len(owners))]
			f := event.Filter{Type: ctxtype.PrinterStatus}
			oneShot := rng.Intn(3) == 0
			if oneShot {
				f.Source = guid.New(guid.KindDevice)
			}
			rec, err := m.Subscribe(o, f, func(event.Event) {}, SubOptions{OneShot: oneShot})
			if err != nil {
				t.Fatal(err)
			}
			model[o] = append(model[o], rec.ID)
			live = append(live, rec.ID)
			ownerOf[rec.ID] = o
			if oneShot {
				oneShots[rec.ID] = f.Source
			}
		case r < 7:
			op = "cancel"
			id := live[rng.Intn(len(live))]
			if err := m.Cancel(id); err != nil {
				t.Fatalf("step %d: Cancel: %v", step, err)
			}
			drop(id)
		case r < 9:
			op = "fire"
			if len(oneShots) == 0 {
				continue
			}
			var id guid.GUID
			for _, g := range live { // first live one-shot, in subscribe order
				if _, ok := oneShots[g]; ok {
					id = g
					break
				}
			}
			if err := m.Publish(event.New(ctxtype.PrinterStatus, oneShots[id], 1, t0, nil)); err != nil {
				t.Fatal(err)
			}
			// The firing is done once its cleanup has left the table.
			waitFor(t, func() bool {
				_, ok := m.Get(id)
				return !ok
			})
			drop(id)
		default:
			op = "cancel-owned"
			o := owners[rng.Intn(len(owners))]
			want := len(model[o])
			if n := m.CancelOwned(o); n != want {
				t.Fatalf("step %d: CancelOwned = %d, model %d", step, n, want)
			}
			for _, id := range slices.Clone(model[o]) {
				drop(id)
			}
		}
		check(step, op)
	}
}
