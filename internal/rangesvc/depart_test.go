package rangesvc

import (
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/profile"
)

// TestHostForgetsDepartedEndpoints: remote components that deregister, and
// one whose lease lapses, leave nothing behind in the host. Each exchanges
// traffic both ways first, and departs with a partial delivery batch and a
// deferred ack pending, so its endpoint holds an armed timer of each kind.
// Afterwards the host holds no endpoint and no timer of its is left armed.
func TestHostForgetsDepartedEndpoints(t *testing.T) {
	defer leak.Check(t)()
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	srv := r.rng.ServerID()
	timers := r.clk.PendingCount() // the registrar's sweep

	src := guid.New(guid.KindDevice)
	join := func() *Connector {
		t.Helper()
		var received atomic.Int64
		c, err := NewBatchConnector(guid.New(guid.KindApplication), "short-lived", r.net,
			func(events []event.Event) { received.Add(int64(len(events))) }, r.clk)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(srv, profile.Profile{}, true); err != nil {
			t.Fatal(err)
		}
		// Both directions' leading reports leave at once.
		r.host.sendEvents(c.ID(), burstFrom(src, 0, 4))
		if err := c.PublishAll(burstFrom(c.ID(), 0, 4)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			_, acked := c.RemoteCredit()
			return acked && c.AcksSent() == 1 && received.Load() == 4
		})
		// A partial batch waits for the delay timer, and a no-news report
		// for the ack window.
		r.host.sendEvents(c.ID(), burstFrom(src, 4, 2))
		if err := c.PublishAll(burstFrom(c.ID(), 4, 4)); err != nil {
			t.Fatal(err)
		}
		// The host handles one endpoint's traffic in order: once the call
		// is answered, the publish before it has been noted.
		if _, err := c.Call(srv, "dispatch.stats", nil); err != nil {
			t.Fatal(err)
		}
		return c
	}

	const n = 3
	for i := 0; i < n; i++ {
		c := join()
		if err := c.Deregister(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A silent departure: the connector goes without a word and its lease
	// lapses.
	c := join()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	lease := r.rng.Registrar().Lease()
	for step := 0; r.rng.Registrar().IsLive(c.ID()); step++ {
		if step > 10 {
			t.Fatal("the silent connector's lease never lapsed")
		}
		r.clk.Advance(lease / 2)
	}

	r.host.mu.Lock()
	left := len(r.host.out)
	r.host.mu.Unlock()
	if left != 0 {
		t.Fatalf("the host holds %d endpoints after every remote departed, want 0", left)
	}
	if got := r.clk.PendingCount(); got != timers {
		t.Fatalf("%d timers armed after every remote departed, want the %d armed before any arrived", got, timers)
	}
}
