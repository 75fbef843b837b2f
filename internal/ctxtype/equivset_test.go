package ctxtype

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestGenerationBumpsOnlyOnRealMerges(t *testing.T) {
	r := &Registry{}
	if r.Generation() != 0 {
		t.Fatal("fresh registry has non-zero generation")
	}
	if err := r.DeclareEquivalent("a.x", "b.y"); err != nil {
		t.Fatal(err)
	}
	g1 := r.Generation()
	if g1 == 0 {
		t.Fatal("merge did not bump generation")
	}
	// Re-declaring an existing equivalence merges nothing.
	if err := r.DeclareEquivalent("b.y", "a.x"); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != g1 {
		t.Fatal("no-op declaration bumped generation")
	}
	if err := r.DeclareEquivalent("b.y", "c.z"); err != nil {
		t.Fatal(err)
	}
	if r.Generation() <= g1 {
		t.Fatal("transitive merge did not bump generation")
	}
}

func TestEquivSet(t *testing.T) {
	r := &Registry{}
	if got := r.EquivSet("a.x"); got != nil {
		t.Fatalf("EquivSet on empty registry = %v, want nil", got)
	}
	if err := r.DeclareEquivalent("a.x", "b.y"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeclareEquivalent("b.y", "c.z"); err != nil {
		t.Fatal(err)
	}
	want := []Type{"a.x", "b.y", "c.z"}
	// Every member sees the full class, whether it is the union-find root
	// or a child, and regardless of registration.
	for _, m := range want {
		if got := r.EquivSet(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("EquivSet(%s) = %v, want %v", m, got, want)
		}
	}
	// A type outside any class yields nil even with classes present.
	if got := r.EquivSet("d.w"); got != nil {
		t.Fatalf("EquivSet(d.w) = %v, want nil", got)
	}
}

func TestEquivSetCoreRegistry(t *testing.T) {
	r := NewRegistry()
	want := []Type{LocationSightingDoor, LocationSightingWLAN}
	if got := r.EquivSet(LocationSightingWLAN); !reflect.DeepEqual(got, want) {
		t.Fatalf("EquivSet(wlan) = %v, want %v", got, want)
	}
	if got := r.EquivSet(TemperatureCelsius); got != nil {
		t.Fatalf("EquivSet(celsius) = %v, want nil (converters are not equivalences)", got)
	}
}

func TestValidateAllocationFree(t *testing.T) {
	// Validate runs inside every Publish; it must not allocate on success.
	allocs := testing.AllocsPerRun(100, func() {
		if err := LocationSightingDoor.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %v objects per run", allocs)
	}
	for _, bad := range []Type{"", ".", "a..b", "a.", ".a", "A.b", "a b"} {
		if bad.Validate() == nil {
			t.Fatalf("Validate(%q) accepted malformed type", bad)
		}
	}
}

func TestGenerationMovesOnQualityChange(t *testing.T) {
	r := &Registry{}
	r.SetQuality("a.x", 0.7)
	g := r.Generation()
	if g == 0 {
		t.Fatal("a new quality did not bump generation")
	}
	r.SetQuality("a.x", 0.7)
	if r.Generation() != g {
		t.Fatal("re-setting the same quality bumped generation")
	}
	r.SetQuality("a.x", 0.8)
	if r.Generation() <= g {
		t.Fatal("a changed quality did not bump generation")
	}
}

// TestEquivalentConcurrentWithDeclare: readers ask Equivalent, ClassOf and
// EquivSet under the read lock while writers, started after them, merge a chain of types into
// one class in shuffled order. Run with -race. A pair a reader once saw
// equivalent stays equivalent, and at the end every type is in one class.
func TestEquivalentConcurrentWithDeclare(t *testing.T) {
	const n = 16
	r := &Registry{}
	types := make([]Type, n)
	for i := range types {
		types[i] = Type(fmt.Sprintf("chain.t%02d", i))
		if err := r.Register(types[i]); err != nil {
			t.Fatal(err)
		}
	}
	pairs := rand.New(rand.NewSource(3)).Perm(n - 1) // merge (t_i, t_i+1) in this order

	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			seen := make(map[[2]int]bool)
			for {
				select {
				case <-done:
					return
				default:
				}
				a, b := rng.Intn(n), rng.Intn(n)
				eq := r.Equivalent(types[a], types[b])
				if seen[[2]int{a, b}] && !eq {
					t.Errorf("%s ≡ %s was seen, then lost", types[a], types[b])
					return
				}
				seen[[2]int{a, b}] = eq
				if class := r.ClassOf(types[a]); !slices.Contains(class, types[a]) {
					t.Errorf("ClassOf(%s) = %v lacks the type itself", types[a], class)
					return
				}
				if set := r.EquivSet(types[a]); set != nil && !slices.Contains(set, types[a]) {
					t.Errorf("EquivSet(%s) = %v lacks the type itself", types[a], set)
					return
				}
			}
		}(g)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pairs); k += 2 {
				i := pairs[k]
				if err := r.DeclareEquivalent(types[i+1], types[i]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	for _, u := range types {
		if !r.Equivalent(types[0], u) {
			t.Fatalf("%s not equivalent to %s after every merge", u, types[0])
		}
	}
	if class := r.ClassOf(types[n-1]); !reflect.DeepEqual(class, types) {
		t.Fatalf("ClassOf = %v, want all %d types", class, n)
	}
}
