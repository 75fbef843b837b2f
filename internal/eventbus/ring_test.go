package eventbus

// Tests for lazily committed delivery rings: a subscription's ring is
// allocated at its first event, at the full capacity, and never before.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// ringLen reads the subscription's committed ring length and whether any
// ring is committed at all.
func ringLen(s *Subscription) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.queue != nil
}

// TestRingCommittedAtFirstEvent: a subscription holds no ring until an
// event reaches it — publishes it does not match leave it bare — and then
// holds one of exactly its capacity, through either enqueue path.
func TestRingCommittedAtFirstEvent(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  []SubOption
		limit int
		batch bool
	}{
		{"default/publish", nil, DefaultQueueLen, false},
		{"sized/publish", []SubOption{WithQueueLen(16)}, 16, false},
		{"sized/run", []SubOption{WithQueueLen(16)}, 16, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := New(nil)
			defer b.Close()
			delivered := make(chan struct{}, 4)
			sub, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
				delivered <- struct{}{}
			}, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Publish(mkEvent(ctxtype.PrinterStatus, 1)); err != nil {
				t.Fatal(err)
			}
			if n, committed := ringLen(sub); committed {
				t.Fatalf("ring of %d committed before the subscription's first event", n)
			}
			if sub.limit != c.limit {
				t.Fatalf("limit = %d, want %d", sub.limit, c.limit)
			}
			e := mkEvent(ctxtype.TemperatureCelsius, 2)
			if c.batch {
				err = b.PublishAll([]event.Event{e})
			} else {
				err = b.Publish(e)
			}
			if err != nil {
				t.Fatal(err)
			}
			<-delivered
			if n, _ := ringLen(sub); n != c.limit {
				t.Fatalf("ring length after the first event = %d, want the full limit %d", n, c.limit)
			}
		})
	}
}

// TestFirstRunLongerThanLimit: when a subscription's very first enqueue is
// a run longer than its capacity, the freshly committed ring keeps exactly
// the newest limit events, and every discarded event is attributed, to the
// ingest key when one is given and to each event's own Source otherwise.
// The subtests keep the "policy=1" in their names from when the bus had a
// second drop policy, so a run's results stay comparable by name.
func TestFirstRunLongerThanLimit(t *testing.T) {
	const limit, runLen = 4, 10
	srcs := [2]guid.GUID{guid.New(guid.KindDevice), guid.New(guid.KindDevice)}
	for _, keyed := range []bool{false, true} {
		t.Run(fmt.Sprintf("policy=1/keyed=%v", keyed), func(t *testing.T) {
			b := New(nil)
			defer b.Close()
			got := make(chan uint64, runLen)
			sub, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(e event.Event) {
				got <- e.Seq
			}, WithQueueLen(limit))
			if err != nil {
				t.Fatal(err)
			}
			run := make([]event.Event, runLen)
			for i := range run {
				run[i] = event.New(ctxtype.TemperatureCelsius, srcs[i%2], uint64(i+1), t0, nil)
			}
			kept, lost := run[runLen-limit:], run[:runLen-limit]
			wantDrops := map[guid.GUID]uint64{}
			var key guid.GUID
			if keyed {
				key = guid.New(guid.KindApplication)
				wantDrops[key] = uint64(len(lost))
			} else {
				for _, e := range lost {
					wantDrops[e.Source]++
				}
			}
			if err := b.PublishAllOwnedFrom(key, append([]event.Event(nil), run...)); err != nil {
				t.Fatal(err)
			}

			for _, want := range kept {
				select {
				case seq := <-got:
					if seq != want.Seq {
						t.Fatalf("delivered seq %d, want %d (kept %v)", seq, want.Seq, seqs(kept))
					}
				case <-time.After(5 * time.Second):
					t.Fatal("kept events not delivered")
				}
			}
			if n, _ := ringLen(sub); n != limit {
				t.Fatalf("ring length = %d, want %d", n, limit)
			}
			if st := b.Stats(); st.Dropped != uint64(len(lost)) {
				t.Fatalf("Stats().Dropped = %d, want %d", st.Dropped, len(lost))
			}
			bySrc := shares(b.Drops())
			if len(bySrc) != len(wantDrops) {
				t.Fatalf("Drops() = %v, want %v", bySrc, wantDrops)
			}
			for pub, n := range wantDrops {
				if bySrc[pub] != n {
					t.Fatalf("Drops() = %v, want %v", bySrc, wantDrops)
				}
			}
		})
	}
}

func seqs(events []event.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	return out
}

// TestSubscribeFirstPublishCancelRace races subscribes, cancels and both
// publish paths (run with -race). A subscription cancelled before any event
// reached it must never commit a ring afterwards, and every committed ring
// has the full capacity.
func TestSubscribeFirstPublishCancelRace(t *testing.T) {
	const limit = 8
	b := New(nil, WithShards(4))
	defer b.Close()
	stop := make(chan struct{})
	var pubs sync.WaitGroup
	for p := 0; p < 2; p++ {
		pubs.Add(1)
		go func(batch bool) {
			defer pubs.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				e := mkEvent(ctxtype.TemperatureCelsius, seq)
				if batch {
					_ = b.PublishAll([]event.Event{e, e})
				} else {
					_ = b.Publish(e)
				}
			}
		}(p == 1)
	}

	var bare []*Subscription // cancelled without ever committing a ring
	var subs sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < 50; i++ {
				s, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {}, WithQueueLen(limit))
				if err != nil {
					t.Error(err)
					return
				}
				s.Cancel()
				switch n, committed := ringLen(s); {
				case !committed:
					mu.Lock()
					bare = append(bare, s)
					mu.Unlock()
				case n != limit:
					t.Errorf("committed ring of %d, want the full limit %d", n, limit)
				}
			}
		}()
	}
	subs.Wait()
	// More traffic after the cancels: none of it may reach a cancelled
	// subscription's ring.
	if err := b.PublishAll([]event.Event{mkEvent(ctxtype.TemperatureCelsius, 0)}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	pubs.Wait()
	for _, s := range bare {
		if n, committed := ringLen(s); committed {
			t.Fatalf("cancelled subscription committed a ring of %d after Cancel", n)
		}
	}
	if n := b.Stats().Subs; n != 0 {
		t.Fatalf("%d subscriptions still indexed after Cancel", n)
	}
}
