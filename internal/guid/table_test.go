package guid

import (
	"testing"
)

// keys counts the keys a table names, the Nil entry included.
func keys[V any](tab *Table[V]) int {
	n := 0
	tab.Range(func(GUID, *V) { n++ })
	return n
}

// TestTableBound: the first TableBound keys get entries of their own, each
// kept for good; every later key shares the one Nil entry, so the table
// never names more than TableBound + 1 keys.
func TestTableBound(t *testing.T) {
	var tab Table[int]
	if keys(&tab) != 0 || tab.Lookup(New(KindDevice)) != nil {
		t.Fatal("zero table is not empty")
	}
	named := make([]GUID, TableBound)
	for i := range named {
		named[i] = New(KindDevice)
		*tab.Get(named[i]) = i + 1
	}
	if got := keys(&tab); got != TableBound {
		t.Fatalf("table names %d keys after %d keys, want %d", got, TableBound, TableBound)
	}
	late := New(KindDevice)
	overflow := tab.Get(late)
	if overflow != tab.Lookup(Nil) || tab.Lookup(late) != nil {
		t.Fatal("the first key past the bound did not get the Nil entry")
	}
	for i := 0; i < 10; i++ {
		if tab.Get(New(KindDevice)) != overflow {
			t.Fatal("a later key past the bound got an entry of its own")
		}
	}
	if got := keys(&tab); got != TableBound+1 {
		t.Fatalf("table names %d keys past the bound, want %d", got, TableBound+1)
	}
	for i, g := range named {
		if v := tab.Get(g); *v != i+1 || tab.Lookup(g) != v {
			t.Fatalf("key %d lost its entry past the bound", i)
		}
	}
}

// TestHotpathTableGetZeroAlloc pins Get's lock-free hit once a key's entry
// is installed: the path every drop under a subscription's lock takes.
func TestHotpathTableGetZeroAlloc(t *testing.T) {
	var tab Table[int]
	g := New(KindApplication)
	tab.Get(g)
	allocs := testing.AllocsPerRun(500, func() {
		*tab.Get(g)++
	})
	if allocs != 0 {
		t.Fatalf("Get hit path allocates %.1f times, want 0", allocs)
	}
}
