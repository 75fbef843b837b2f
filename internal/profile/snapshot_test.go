package profile

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sci/internal/guid"
)

// TestLookupSnapshotFollowsChanges: Lookup reads the index without a lock,
// and each change shows in the very next Lookup, the index having been read
// before the change: a new entity is found, a replaced profile is the new
// one, and a removed entity is gone.
func TestLookupSnapshotFollowsChanges(t *testing.T) {
	var m Manager
	a, b := validProfile(), validProfile()
	if _, err := m.Lookup(a.Entity); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup in an empty store = %v, want ErrNotFound", err)
	}
	lookup := func(what string, want *Profile, p Profile) {
		t.Helper()
		got, err := m.Lookup(p.Entity)
		switch {
		case want == nil && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Lookup = %v, %v; want ErrNotFound", what, got, err)
		case want != nil && (err != nil || got.Name != want.Name):
			t.Fatalf("%s: Lookup = %v, %v; want %q", what, got, err, want.Name)
		}
	}
	for _, p := range []Profile{a, b} {
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
		lookup("Put", &p, p)
	}
	a.Name = "renamed"
	if err := m.Put(a); err != nil {
		t.Fatal(err)
	}
	lookup("Put of a stored entity", &a, a)
	m.Remove(a.Entity)
	lookup("Remove", nil, a)
	lookup("the other entity after a Remove", &b, b)
	if err := m.Put(a); err != nil {
		t.Fatal(err)
	}
	lookup("Put after Remove", &a, a)
}

// TestLookupSnapshotNeverOlderThanGeneration: readers that read Generation
// and then Lookup, against a writer changing the store, never get an answer
// from before the generation they read. The writer's steps are fixed, so a
// generation names the store exactly: each round stores keep[i] for good,
// stores the display's profile with the round's number, and stores and
// removes gone[i], moving the generation by 4.
func TestLookupSnapshotNeverOlderThanGeneration(t *testing.T) {
	const rounds, readers = 200, 2
	var m Manager
	keep, gone := make([]Profile, rounds), make([]Profile, rounds)
	for i := range keep {
		keep[i], gone[i] = validProfile(), validProfile()
	}
	display := validProfile()
	display.Attributes = map[string]string{"round": "-1"}
	if err := m.Put(display); err != nil {
		t.Fatal(err)
	}
	g0 := m.Generation()
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
				n := int(m.Generation() - g0)
				// Round j stores keep[j] at step 4j+1, the display at 4j+2,
				// and removes gone[j] at 4j+4.
				if n >= 1 {
					if _, err := m.Lookup(keep[(n-1)/4].Entity); err != nil {
						t.Errorf("generation %d: keep[%d]: %v", n, (n-1)/4, err)
						return
					}
				}
				if n >= 2 {
					p, err := m.Lookup(display.Entity)
					if err != nil {
						t.Error(err)
						return
					}
					if round, _ := strconv.Atoi(p.Attributes["round"]); round < (n-2)/4 {
						t.Errorf("generation %d: the display's round %d profile, want round %d or later", n, round, (n-2)/4)
						return
					}
				}
				if n >= 4 {
					if _, err := m.Lookup(gone[n/4-1].Entity); !errors.Is(err, ErrNotFound) {
						t.Errorf("generation %d: gone[%d] still found (%v)", n, n/4-1, err)
						return
					}
				}
				runtime.Gosched() // let the writer on
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		display.Attributes = map[string]string{"round": strconv.Itoa(i)}
		for _, p := range []Profile{keep[i], display, gone[i]} {
			if err := m.Put(p); err != nil {
				t.Fatal(err)
			}
		}
		m.Remove(gone[i].Entity)
	}
	close(done)
	wg.Wait()
	if got := m.Generation() - g0; got != 4*rounds {
		t.Fatalf("generation moved %d times, want %d", got, 4*rounds)
	}
	if _, err := m.Lookup(guid.New(guid.KindEntity)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup of an unknown entity = %v", err)
	}
}
