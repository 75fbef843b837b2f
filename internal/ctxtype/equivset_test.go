package ctxtype

import (
	"reflect"
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
