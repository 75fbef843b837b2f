package guid

import (
	"maps"
	"sync"
	"sync/atomic"
)

// TableBound is the most keys a Table names: past it, new keys share the
// Nil entry, so a population that churns through sources (adversarial or
// not) cannot grow a table without limit.
const TableBound = 4096

// Table is a bounded copy-on-write map from GUID to per-origin state (a
// loss counter, a token bucket): each key's entry is a *V that lives as
// long as the table. A hit — every call
// after a key's first — is a pointer load and a map read, with no lock and
// no allocation, so it is safe on a hot path and under a caller's lock.
// Only a key's first Get takes the table's install lock, a leaf that takes
// nothing else, to publish a copy of the map with the new entry. Entries
// are never removed. The zero value is an empty table ready to use.
type Table[V any] struct {
	mu sync.Mutex // serialises installs only; a leaf
	m  atomic.Pointer[map[GUID]*V]
}

// Get returns g's entry, installing a zero V on g's first use. Once the
// table names TableBound keys, a new key gets the shared Nil entry.
//
//lint:hotpath
func (t *Table[V]) Get(g GUID) *V {
	if v := t.Lookup(g); v != nil {
		return v
	}
	//lint:allow hotpath cold install path: once per new key, behind the lock-free hit
	return t.install(g)
}

// Lookup returns g's entry, or nil when g has none. It never installs.
func (t *Table[V]) Lookup(g GUID) *V {
	if m := t.m.Load(); m != nil {
		return (*m)[g]
	}
	return nil
}

// install publishes a copy of the map with an entry for g (or, past the
// bound, for Nil) unless a racing Get installed it first.
func (t *Table[V]) install(g GUID) *V {
	t.mu.Lock()
	defer t.mu.Unlock()
	var old map[GUID]*V
	if m := t.m.Load(); m != nil {
		old = *m
	}
	if v, ok := old[g]; ok {
		return v
	}
	if len(old) >= TableBound {
		g = Nil
		if v, ok := old[Nil]; ok {
			return v
		}
	}
	m := maps.Clone(old)
	if m == nil {
		m = make(map[GUID]*V)
	}
	v := new(V)
	m[g] = v
	t.m.Store(&m)
	return v
}

// Range calls f with every key and its entry, in no particular order. The
// entries are live: a concurrent writer may move them while f reads them.
func (t *Table[V]) Range(f func(GUID, *V)) {
	if m := t.m.Load(); m != nil {
		for g, v := range *m {
			f(g, v)
		}
	}
}
