package guid

import (
	"sync"
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

// TestTableFillPublishesInBatches: filling a table to its bound publishes
// the lock-free map a logarithmic number of times, not once per key, and
// a key read again and again after its install is soon read without the
// install lock.
func TestTableFillPublishesInBatches(t *testing.T) {
	var tab Table[int]
	publishes := 0
	last := tab.m.Load()
	for i := 0; i < TableBound; i++ {
		tab.Get(New(KindDevice))
		if m := tab.m.Load(); m != last {
			publishes, last = publishes+1, m
		}
	}
	if publishes > 40 {
		t.Fatalf("filling %d keys published the map %d times, want a logarithmic count", TableBound, publishes)
	}
	var small Table[int]
	for i := 0; i < 100; i++ {
		small.Get(New(KindDevice))
	}
	hot := New(KindDevice)
	v := small.Get(hot)
	for i := 0; i < 200; i++ {
		if small.Get(hot) != v {
			t.Fatal("a key's entry changed")
		}
	}
	if m := small.m.Load(); (*m)[hot] != v {
		t.Fatal("a key read 200 times after its install is still not published")
	}
}

// TestTableFind: Find is Get without the install: a key's own entry, then,
// once the table is full, the overflow entry a new key would share.
func TestTableFind(t *testing.T) {
	var tab Table[int]
	g := New(KindDevice)
	if tab.Find(g) != nil {
		t.Fatal("Find on an empty table found an entry")
	}
	own := tab.Get(g)
	if tab.Find(g) != own || tab.Lookup(g) != own {
		t.Fatal("Find or Lookup missed a key's own entry")
	}
	for i := 1; i < TableBound; i++ {
		tab.Get(New(KindDevice))
	}
	if tab.Find(New(KindDevice)) != nil {
		t.Fatal("a full table without an overflow entry found one")
	}
	overflow := tab.Get(New(KindDevice))
	if overflow != tab.Lookup(Nil) {
		t.Fatal("the first key past the bound did not get the Nil entry")
	}
	if late := New(KindDevice); tab.Find(late) != overflow || tab.Lookup(late) != nil {
		t.Fatal("Find of a new key in a full table is not the overflow entry, or Lookup installed it")
	}
	if tab.Find(g) != own {
		t.Fatal("Find lost a key's own entry past the bound")
	}
}

// TestTableConcurrent: goroutines install, read and range over one table
// (run with -race); every Get of a key returns the one entry it was first
// given, and Range names every key installed.
func TestTableConcurrent(t *testing.T) {
	const workers, perWorker = 4, 600
	var tab Table[int]
	var wg sync.WaitGroup
	ids := make([][]GUID, workers)
	for w := range ids {
		ids[w] = make([]GUID, perWorker)
		for i := range ids[w] {
			ids[w][i] = New(KindDevice)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine, theirs []GUID) {
			defer wg.Done()
			for i, g := range mine {
				v := tab.Get(g)
				for j := 0; j <= i%4; j++ {
					if tab.Get(g) != v || tab.Lookup(g) != v || tab.Find(g) != v {
						t.Error("a key's entry changed")
						return
					}
				}
				tab.Lookup(theirs[i])
				if i%100 == 0 {
					tab.Range(func(GUID, *int) {})
				}
			}
		}(ids[w], ids[(w+1)%workers])
	}
	wg.Wait()
	if got := keys(&tab); got != workers*perWorker {
		t.Fatalf("table names %d keys, want %d", got, workers*perWorker)
	}
}
