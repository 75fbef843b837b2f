package server

// Tests for the Range's dispatch tuning and observability surface:
// Config.EventShards threading and StatsMap.

import (
	"strings"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/entity"
)

func TestEventShardsThreading(t *testing.T) {
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	rng := New(Config{Name: "sharded", Clock: clk, EventShards: 5})
	defer rng.Close()
	// 5 rounds up to the next power of two.
	if got := len(rng.Mediator().ShardStats()); got != 8 {
		t.Fatalf("ShardStats stripes = %d, want 8", got)
	}
	if st := rng.DispatchStats(); st.Subs == 0 {
		t.Fatalf("DispatchStats = %+v, want the Range's own profile-update subscription", st)
	}
}

func TestStatsMap(t *testing.T) {
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	rng := New(Config{Name: "observed", Clock: clk, EventShards: 2})
	defer rng.Close()
	caa := entity.NewCAA("watcher", nil, clk)
	if err := rng.AddApplication(caa); err != nil {
		t.Fatal(err)
	}

	stats := rng.StatsMap()
	for _, want := range []string{
		"eventbus.published",
		"eventbus.subs",
		"eventbus.index_hit_ratio",
		"eventbus.shard00.published",
		"eventbus.shard01.delivered",
		"queries.submitted",
		// The rest of the dispatch and remote figures dispatch.stats
		// answers with.
		"eventbus.delivered",
		"eventbus.dropped",
		"eventbus.index_hits",
		"eventbus.residual_scanned",
		"eventbus.shards",
		"eventbus.quota.rejected",
		"remote.batches_sent",
		"remote.events_sent",
		"remote.send_failures",
		"remote.flushes",
		"remote.backpressure.throttled",
		"remote.backpressure.drops_reported",
		"remote.backpressure.throttle_events",
		"remote.backpressure.shed",
	} {
		if _, ok := stats[want]; !ok {
			t.Fatalf("StatsMap missing %q: %v", want, stats)
		}
	}
	for k := range stats {
		if !strings.Contains(k, ".") {
			t.Errorf("StatsMap key %q is not a dotted layer.metric name", k)
		}
	}
	if stats["eventbus.subs"] < 1 {
		t.Fatal("eventbus.subs not populated")
	}
	if stats["eventbus.shards"] != 2 {
		t.Fatalf("eventbus.shards = %v, want 2", stats["eventbus.shards"])
	}
	if ratio := stats["eventbus.index_hit_ratio"]; ratio < 0 || ratio > 1 {
		t.Fatalf("index_hit_ratio = %v, want within [0,1]", ratio)
	}
}
