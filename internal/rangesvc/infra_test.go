package rangesvc

// Tests for infrastructure service calls addressed to the Context Server
// itself (dispatch.stats).

import (
	"testing"

	"sci/internal/guid"
	"sci/internal/profile"
)

func TestDispatchStatsServiceCall(t *testing.T) {
	r := newRig(t)
	defer r.close()
	app, err := NewConnector(guid.New(guid.KindApplication), "ops", r.net, nil, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Register(r.rng.ServerID(), profile.Profile{}, true); err != nil {
		t.Fatal(err)
	}

	// Drive a little event traffic so the counters are non-zero: the Range
	// publishes lifecycle events itself on every registration.
	out, err := app.Call(r.rng.ServerID(), "dispatch.stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"eventbus.published", "eventbus.delivered", "eventbus.dropped",
		"eventbus.subs", "eventbus.index_hits", "eventbus.residual_scanned",
		"eventbus.index_hit_ratio", "eventbus.shards",
	} {
		if _, ok := out[key].(float64); !ok {
			t.Fatalf("dispatch.stats missing numeric %q: %v", key, out)
		}
	}
	if out["eventbus.shards"].(float64) < 1 {
		t.Fatalf("eventbus.shards = %v, want ≥ 1", out["eventbus.shards"])
	}
	if out["eventbus.published"].(float64) < 1 {
		t.Fatalf("eventbus.published = %v, want ≥ 1 (lifecycle events)", out["eventbus.published"])
	}
	if r := out["eventbus.index_hit_ratio"].(float64); r < 0 || r > 1 {
		t.Fatalf("eventbus.index_hit_ratio = %v, want within [0,1]", r)
	}

	// Unknown infrastructure ops must fail loudly, not fall through to
	// entity lookup.
	if _, err := app.Call(r.rng.ServerID(), "no.such.op", nil); err == nil {
		t.Fatal("unknown infrastructure op accepted")
	}
}
