package resolver

import (
	"hash/maphash"
	"strconv"
	"testing"

	"sci/internal/guid"
	"sci/internal/profile"
	"sci/internal/query"
)

// TestResolveCacheStoreCopiesOneShard: a store publishes a table that
// shares every shard but the one it changes, the entry it stored is found
// at once, and the cache never holds more than maxCacheEntries entries
// however many distinct resolutions are stored.
func TestResolveCacheStoreCopiesOneShard(t *testing.T) {
	r := New(&profile.Manager{}, nil, nil)
	g := generations{profiles: 1}
	root, plan := &Binding{}, &Plan{}
	for i := 0; i < 4*maxCacheEntries; i++ {
		k := cacheKey{what: query.What{EntityType: strconv.Itoa(i)}}
		h := maphash.Comparable(r.seed, k)
		before := r.table.Load()
		r.store(k, h, g, nil, root, plan)
		after := r.table.Load()
		total := 0
		for s, sh := range after.shards {
			if s != int(h%cacheShards) && sh != before.shards[s] {
				t.Fatalf("store %d replaced shard %d; only shard %d holds its key", i, s, h%cacheShards)
			}
			if sh == nil {
				continue
			}
			n := 0
			for _, list := range sh.entries {
				n += len(list)
			}
			if n != sh.size || n > maxShardEntries {
				t.Fatalf("store %d: shard %d holds %d entries, counts %d, bound %d", i, s, n, sh.size, maxShardEntries)
			}
			total += n
		}
		if total > maxCacheEntries {
			t.Fatalf("store %d: the cache holds %d entries, bound %d", i, total, maxCacheEntries)
		}
		if e := r.lookup(&k, h, g, nil, guid.Nil); e == nil || e.root != root {
			t.Fatalf("store %d: the entry just stored is not found", i)
		}
	}
}
