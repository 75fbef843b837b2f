package mediator

import (
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

func TestPublishAllThroughMediator(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	var got atomic.Int64
	if _, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus},
		func(event.Event) { got.Add(1) }, SubOptions{}); err != nil {
		t.Fatal(err)
	}
	batch := []event.Event{
		mkEvent(ctxtype.PrinterStatus, 1),
		mkEvent(ctxtype.PathRoute, 2), // filtered out
		mkEvent(ctxtype.PrinterStatus, 3),
	}
	if err := m.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 2 })
}

func TestSubscribeBatchReceivesSlices(t *testing.T) {
	m := New(nil)
	defer m.Close()
	owner := guid.New(guid.KindApplication)
	var mu sync.Mutex
	var total, calls int
	if _, err := m.SubscribeBatch(owner, event.Filter{Type: ctxtype.PrinterStatus},
		func(events []event.Event) {
			mu.Lock()
			total += len(events)
			calls++
			mu.Unlock()
		}, SubOptions{}); err != nil {
		t.Fatal(err)
	}
	batch := make([]event.Event, 8)
	for i := range batch {
		batch[i] = mkEvent(ctxtype.PrinterStatus, uint64(i))
	}
	if err := m.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 8
	})
	mu.Lock()
	defer mu.Unlock()
	if calls > 8 {
		t.Fatalf("batch handler invoked %d times for 8 events", calls)
	}
}

// TestStripedBookkeepingAcrossOwners exercises the striped subscription table:
// many owners register, publish and tear down concurrently, by record id
// and by owner; run with -race to check stripe independence.
func TestStripedBookkeepingAcrossOwners(t *testing.T) {
	m := New(nil, WithShards(8))
	defer m.Close()
	const owners = 16
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := guid.New(guid.KindApplication)
			for r := 0; r < 50; r++ {
				rec, err := m.Subscribe(owner, event.Filter{Type: ctxtype.PrinterStatus},
					func(event.Event) {}, SubOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if len(ownedBy(m, owner)) == 0 {
					t.Error("table missing the owner's fresh subscription")
					return
				}
				// Every third record stays live until the owner's teardown.
				switch r % 3 {
				case 0:
					if err := m.Cancel(rec.ID); err != nil {
						t.Error(err)
						return
					}
				case 1:
					m.CancelOwned(owner)
				}
			}
			m.CancelOwned(owner)
			if n := len(ownedBy(m, owner)); n != 0 {
				t.Errorf("owner still holds %d records after teardown", n)
			}
		}()
	}
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("%d records left after full teardown", m.Len())
	}
	if got := len(m.Records()); got != 0 {
		t.Fatalf("Records() returned %d after teardown", got)
	}
}
