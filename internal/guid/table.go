package guid

import (
	"sync"
	"sync/atomic"
)

// TableBound is the most keys a Table names: past it, new keys share the
// Nil entry, so a population that churns through sources (adversarial or
// not) cannot grow a table without limit.
const TableBound = 4096

// Table is a bounded map from GUID to per-origin state (a loss counter, a
// token bucket): each key's entry is a *V that lives as long as the table.
// A hit on a published key is a pointer load and a map read, with no lock
// and no allocation, so it is safe on a hot path and under a caller's
// lock. A new key is installed under the table's install lock, a leaf
// that takes nothing else, into a map of recent keys; those are
// published into the lock-free map in batches, a copy-on-write each time
// the recent keys plus the lock-taking reads since the last copy exceed
// the published map's size. A fill of n keys so copies O(n) entries in
// all, and a key read often is published soon after its install. Entries
// are never removed. The zero value is an empty table ready to use.
type Table[V any] struct {
	m atomic.Pointer[map[GUID]*V] // published keys

	mu     sync.Mutex  // serialises installs and reads of recent; a leaf
	recent map[GUID]*V // guarded by mu; installed, not yet published
	misses int         // guarded by mu; lock-taking reads since the last publish
	// pending mirrors len(recent), so that a read the published map misses
	// takes the lock only while some key awaits publication.
	pending atomic.Int64
	full    atomic.Bool // the table names TableBound keys
}

// Get returns g's entry, installing a zero V on g's first use. Once the
// table names TableBound keys, a new key gets the shared Nil entry.
//
//lint:hotpath
func (t *Table[V]) Get(g GUID) *V {
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[g]; ok {
			return v
		}
	}
	//lint:allow hotpath cold install path: once per new key, behind the lock-free hit
	return t.slow(g, true)
}

// Lookup returns g's own entry, or nil when g has none. It never installs,
// and takes the install lock only while some key awaits publication.
func (t *Table[V]) Lookup(g GUID) *V {
	// pending is read before the map: a publish stores the map before it
	// zeroes pending, so a key installed before this call is seen in one
	// or the other.
	pending := t.pending.Load()
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[g]; ok {
			return v
		}
	}
	if pending == 0 {
		return nil
	}
	return t.slow(g, false)
}

// Find returns the entry a Get(g) would return now, without installing:
// g's own entry, or once the table is full the shared Nil entry that every
// later key is charged to; nil when g has neither.
func (t *Table[V]) Find(g GUID) *V {
	if v := t.Lookup(g); v != nil || !t.full.Load() {
		return v
	}
	return t.Lookup(Nil)
}

// slow answers a read the published map missed, under the install lock:
// from the recent keys, or, when install is set, by installing g's entry
// (past the bound, Nil's).
func (t *Table[V]) slow(g GUID, install bool) *V {
	t.mu.Lock()
	defer t.mu.Unlock()
	var pub map[GUID]*V
	if m := t.m.Load(); m != nil {
		pub = *m
	}
	v, ok := pub[g]
	if !ok {
		v, ok = t.recent[g]
	}
	if !ok && install {
		if len(pub)+len(t.recent) >= TableBound {
			g = Nil
			v, ok = pub[Nil]
			if !ok {
				v, ok = t.recent[Nil]
			}
		}
		if !ok {
			v = new(V)
			if t.recent == nil {
				t.recent = make(map[GUID]*V)
			}
			t.recent[g] = v
			t.pending.Add(1)
			if len(pub)+len(t.recent) >= TableBound {
				t.full.Store(true)
			}
		}
	}
	if len(t.recent) > 0 {
		if t.misses++; t.misses+len(t.recent) > len(pub) {
			t.publishLocked(pub)
		}
	}
	return v
}

// publishLocked publishes a copy of pub with the recent keys added.
func (t *Table[V]) publishLocked(pub map[GUID]*V) {
	m := make(map[GUID]*V, len(pub)+len(t.recent))
	for g, v := range pub {
		m[g] = v
	}
	for g, v := range t.recent {
		m[g] = v
	}
	t.m.Store(&m)
	clear(t.recent)
	t.pending.Store(0)
	t.misses = 0
}

// Range calls f with every key and its entry, in no particular order. The
// entries are live: a concurrent writer may move them while f reads them.
func (t *Table[V]) Range(f func(GUID, *V)) {
	t.mu.Lock()
	m := t.m.Load()
	if len(t.recent) > 0 {
		var pub map[GUID]*V
		if m != nil {
			pub = *m
		}
		t.publishLocked(pub)
		m = t.m.Load()
	}
	t.mu.Unlock()
	if m != nil {
		for g, v := range *m {
			f(g, v)
		}
	}
}
