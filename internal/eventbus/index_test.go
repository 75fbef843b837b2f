package eventbus

// Tests for the two-tier sharded subscription index: placement, lookup
// semantics (hierarchy, equivalence, post-subscribe equivalence changes),
// dispatch counters, and race-hardened lifecycle churn. Run with -race.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
)

func TestIndexedHierarchicalDelivery(t *testing.T) {
	b := New(nil)
	defer b.Close()
	// An ancestor-pattern subscription must receive descendant events via
	// the exact index (the event's ancestor chain is part of the key set).
	_, gotParent := collect(t, b, event.Filter{Type: ctxtype.LocationSighting})
	_, gotExact := collect(t, b, event.Filter{Type: ctxtype.LocationSightingDoor})
	_, gotOther := collect(t, b, event.Filter{Type: ctxtype.PrinterStatus})

	if err := b.Publish(mkEvent(ctxtype.LocationSightingDoor, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(gotParent()) == 1 && len(gotExact()) == 1 })
	if len(gotOther()) != 0 {
		t.Fatal("unrelated subscription received the event")
	}
	if st := b.Stats(); st.IndexHits != 2 || st.ResidualScanned != 0 {
		t.Fatalf("index stats = %+v, want 2 hits / 0 residual", st)
	}
}

func TestEquivalenceDeclaredAfterSubscribe(t *testing.T) {
	reg := &ctxtype.Registry{}
	for _, ty := range []ctxtype.Type{"radar.ping", "sonar.ping"} {
		if err := reg.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	b := New(reg)
	defer b.Close()
	_, got := collect(t, b, event.Filter{Type: "radar.ping"})

	// Not yet equivalent: a sonar event must not reach the radar filter
	// (and the lookup-key memo now caches that answer).
	if err := b.Publish(mkEvent("sonar.ping", 1)); err != nil {
		t.Fatal(err)
	}
	// Declaring the equivalence bumps the registry generation, invalidating
	// the memo, so the next publish must be delivered.
	if err := reg.DeclareEquivalent("radar.ping", "sonar.ping"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mkEvent("sonar.ping", 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	if es := got(); es[0].Seq != 2 {
		t.Fatalf("delivered seq %d, want 2 (pre-equivalence event must not match)", es[0].Seq)
	}
}

func TestExactIndexAppliesFieldConstraints(t *testing.T) {
	b := New(nil)
	defer b.Close()
	src := guid.New(guid.KindDevice)
	_, gotSrc := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius, Source: src})

	other := event.New(ctxtype.TemperatureCelsius, guid.New(guid.KindDevice), 1, t0, nil)
	mine := event.New(ctxtype.TemperatureCelsius, src, 2, t0, nil)
	if err := b.Publish(other); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mine); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(gotSrc()) == 1 })
	if es := gotSrc(); es[0].Seq != 2 {
		t.Fatalf("source constraint not applied on the index path: got seq %d", es[0].Seq)
	}
}

func TestResidualTierAndHitRatio(t *testing.T) {
	b := New(nil)
	defer b.Close()
	if r := b.IndexHitRatio(); r != 1 {
		t.Fatalf("idle ratio = %v, want 1", r)
	}
	_, gotAll := collect(t, b, event.Filter{Type: ctxtype.Wildcard})
	_, gotTyped := collect(t, b, event.Filter{Type: ctxtype.PrinterStatus})

	if err := b.Publish(mkEvent(ctxtype.PrinterStatus, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(gotAll()) == 1 && len(gotTyped()) == 1 })
	st := b.Stats()
	if st.IndexHits != 1 || st.ResidualScanned != 1 {
		t.Fatalf("stats = %+v, want 1 index hit and 1 residual scan", st)
	}
	if r := b.IndexHitRatio(); r != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", r)
	}
}

func TestShardStatsAccounting(t *testing.T) {
	b := New(nil, WithShards(4))
	defer b.Close()
	if b.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", b.Shards())
	}
	_, got := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius})
	collect(t, b, event.Filter{})
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	shards := b.ShardStats()
	if len(shards) != 4 {
		t.Fatalf("len(ShardStats) = %d", len(shards))
	}
	var pub, exact, residual, patterns int
	for _, s := range shards {
		pub += int(s.Published)
		exact += s.Exact
		residual += s.Residual
		patterns += s.Patterns
	}
	if pub != 1 || exact != 1 || residual != 1 || patterns != 1 {
		t.Fatalf("aggregated shard stats pub=%d exact=%d residual=%d patterns=%d, want 1/1/1/1",
			pub, exact, residual, patterns)
	}
}

func TestWithShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		b := New(nil, WithShards(tc.in))
		if b.Shards() != tc.want {
			t.Fatalf("WithShards(%d) → %d stripes, want %d", tc.in, b.Shards(), tc.want)
		}
		b.Close()
	}
}

// TestConcurrentLifecycleChurn hammers Subscribe/Cancel/Publish from many
// goroutines at once across exact and residual tiers, and cancels some
// subscriptions from two goroutines at once; run under -race it is the
// core data-race check for the sharded index.
func TestConcurrentLifecycleChurn(t *testing.T) {
	defer leak.Check(t)()
	b := New(nil, WithShards(4))
	defer b.Close()
	types := []ctxtype.Type{
		ctxtype.TemperatureCelsius, ctxtype.PrinterStatus,
		ctxtype.LocationSightingDoor, ctxtype.Wildcard,
	}
	const (
		workers = 8
		rounds  = 300
	)
	var delivered atomic.Uint64
	var poolMu sync.Mutex
	var pool []*Subscription // every worker's subscriptions, for cross-worker cancels
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []*Subscription
			for i := 0; i < rounds; i++ {
				switch rng.Intn(5) {
				case 0, 1: // subscribe
					f := event.Filter{}
					if ty := types[rng.Intn(len(types))]; ty != ctxtype.Wildcard {
						f.Type = ty
					}
					s, err := b.Subscribe(f, func(event.Event) { delivered.Add(1) }, WithQueueLen(8))
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, s)
					poolMu.Lock()
					pool = append(pool, s)
					poolMu.Unlock()
				case 2: // cancel one of ours
					if len(mine) > 0 {
						i := rng.Intn(len(mine))
						mine[i].Cancel()
						mine = append(mine[:i], mine[i+1:]...)
					}
				case 3: // cancel any worker's subscription, racing its own Cancel
					poolMu.Lock()
					var s *Subscription
					if len(pool) > 0 {
						s = pool[rng.Intn(len(pool))]
					}
					poolMu.Unlock()
					if s != nil {
						s.Cancel()
					}
				default: // publish
					ty := types[rng.Intn(len(types)-1)] // concrete types only
					if err := b.Publish(mkEvent(ty, uint64(i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, s := range mine {
				s.Cancel()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	// All subscriptions were cancelled (worker-local cancels may race with
	// another worker's, which is fine — Cancel is idempotent).
	waitFor(t, func() bool { return b.Stats().Subs == 0 })
	st := b.Stats()
	if st.Published == 0 {
		t.Fatal("no events published during churn")
	}
}

// TestCloseDuringChurn closes the bus while publishers and subscribers are
// active: Close must win cleanly (no deadlock, no leaked delivery
// goroutines — the deferred wg.Wait inside Close covers that) and
// subsequent operations must report ErrClosed.
func TestCloseDuringChurn(t *testing.T) {
	b := New(nil, WithShards(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := event.Filter{}
				if w%2 == 0 {
					f.Type = ctxtype.Type(fmt.Sprintf("churn.t%d", i%7))
				}
				s, err := b.Subscribe(f, func(event.Event) {})
				if err != nil {
					if err != ErrClosed {
						t.Errorf("Subscribe: %v", err)
					}
					return
				}
				if err := b.Publish(mkEvent(ctxtype.Type(fmt.Sprintf("churn.t%d", i%7)), uint64(i))); err != nil && err != ErrClosed {
					t.Errorf("Publish: %v", err)
					return
				}
				if i%3 == 0 {
					s.Cancel()
				}
			}
		}(w)
	}
	// Let the churn get going, then close underneath it.
	for b.Stats().Published < 50 {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	close(stop)
	wg.Wait()
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 1)); err != ErrClosed {
		t.Fatalf("Publish after close: %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe(event.Filter{}, func(event.Event) {}); err != ErrClosed {
		t.Fatalf("Subscribe after close: %v, want ErrClosed", err)
	}
	if got := b.Stats().Subs; got != 0 {
		t.Fatalf("Subs = %d after Close", got)
	}
}

// TestPublishConcurrentWithEquivalenceChanges exercises the lookup-key
// memo's copy-on-write invalidation while publishes race with
// DeclareEquivalent calls.
func TestPublishConcurrentWithEquivalenceChanges(t *testing.T) {
	defer leak.Check(t)()
	reg := &ctxtype.Registry{}
	b := New(reg)
	defer b.Close()
	_, got := collect(t, b, event.Filter{Type: "eq.a"})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Growing chain: eq.a ≡ eq.b0 ≡ eq.b1 ≡ … — each call bumps
			// the generation and invalidates the key memo mid-publish.
			if err := reg.DeclareEquivalent("eq.a", ctxtype.Type(fmt.Sprintf("eq.b%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := b.Publish(mkEvent("eq.b0", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// After the declarations settle, eq.b0 events must reach the eq.a
	// subscriber deterministically.
	if err := b.Publish(mkEvent("eq.b0", 999)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, e := range got() {
			if e.Seq == 999 {
				return true
			}
		}
		return false
	})
}
