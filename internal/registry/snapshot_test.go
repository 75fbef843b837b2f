package registry

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sci/internal/guid"
)

// TestLiveSnapshotFollowsChanges: IsLive answers from a snapshot of the
// live set, and each change of the live set (an arrival, a deregistration,
// an expiry) shows in the very next IsLive, the snapshot having been read
// before the change.
func TestLiveSnapshotFollowsChanges(t *testing.T) {
	r, clk := newTestRegistrar()
	defer r.Close()
	a, b := guid.New(guid.KindDevice), guid.New(guid.KindDevice)
	check := func(what string, wantA, wantB bool) {
		t.Helper()
		if got := r.IsLive(a); got != wantA {
			t.Fatalf("%s: IsLive(a) = %v, want %v", what, got, wantA)
		}
		if got := r.IsLive(b); got != wantB {
			t.Fatalf("%s: IsLive(b) = %v, want %v", what, got, wantB)
		}
	}
	check("empty", false, false)
	if _, err := r.Register(a, "a"); err != nil {
		t.Fatal(err)
	}
	check("Register a", true, false)
	if _, err := r.Register(b, "b"); err != nil {
		t.Fatal(err)
	}
	check("Register b", true, true)
	if err := r.Deregister(a); err != nil {
		t.Fatal(err)
	}
	check("Deregister a", false, true)
	clk.Advance(10 * time.Second) // a sweep finds nothing lapsed
	check("sweep before the lease lapses", false, true)
	clk.Advance(25 * time.Second)
	check("expiry of b", false, false)
	if _, err := r.Register(a, "a"); err != nil {
		t.Fatal(err)
	}
	check("Register a again", true, false)
}

// TestHotpathIsLiveZeroAlloc: once the snapshot is built, IsLive
// allocates nothing.
func TestHotpathIsLiveZeroAlloc(t *testing.T) {
	r, _ := newTestRegistrar()
	defer r.Close()
	id := guid.New(guid.KindDevice)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	r.IsLive(id)
	if allocs := testing.AllocsPerRun(100, func() {
		if !r.IsLive(id) {
			t.Fatal("registered entity not live")
		}
	}); allocs != 0 {
		t.Fatalf("IsLive makes %v allocations, want 0", allocs)
	}
}

// TestLiveSnapshotNeverOlderThanGeneration: readers that read Generation
// and then ask IsLive, against a writer churning the live set, never get
// an answer from before the generation they read. The writer's steps are
// fixed, so a generation names the live set exactly: each round registers
// keep[i] for good, then registers and deregisters gone[i], moving the
// generation by 3.
func TestLiveSnapshotNeverOlderThanGeneration(t *testing.T) {
	const rounds, readers = 200, 2
	r := New(Config{Lease: time.Hour})
	defer r.Close()
	keep, gone := make([]guid.GUID, rounds), make([]guid.GUID, rounds)
	for i := range keep {
		keep[i], gone[i] = guid.New(guid.KindDevice), guid.New(guid.KindDevice)
	}
	g0 := r.Generation()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := int(r.Generation() - g0)
				// keep[j] arrived at step 3j+1; gone[j] left at step 3j+3.
				if n >= 1 && !r.IsLive(keep[(n-1)/3]) {
					t.Errorf("generation %d: keep[%d] not live", n, (n-1)/3)
					return
				}
				if n >= 3 && r.IsLive(gone[n/3-1]) {
					t.Errorf("generation %d: gone[%d] still live", n, n/3-1)
					return
				}
				runtime.Gosched() // let the writer on
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if _, err := r.Register(keep[i], "keep"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Register(gone[i], "gone"); err != nil {
			t.Fatal(err)
		}
		if err := r.Deregister(gone[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := r.Generation() - g0; got != 3*rounds {
		t.Fatalf("generation moved %d times, want %d", got, 3*rounds)
	}
}
