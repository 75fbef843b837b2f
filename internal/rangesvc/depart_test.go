package rangesvc

import (
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/profile"
	"sci/internal/wire"
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
		// Both directions' leading reports leave at once. The connector
		// publishes only once its report has left on its own: a report
		// still pending would ride the publish instead.
		r.host.sendEvents(c.ID(), burstFrom(src, 0, 4))
		waitFor(t, func() bool { return c.AcksSent() == 1 && received.Load() == 4 })
		if err := c.PublishAll(burstFrom(c.ID(), 0, 4)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			_, acked := c.RemoteCredit()
			return acked
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

// TestHostIgnoresUnregisteredPublishers: batches from 50 peers that never
// registered are neither ingested nor acked, and leave no endpoint in the
// host; a registered publisher is still ingested and acked.
func TestHostIgnoresUnregisteredPublishers(t *testing.T) {
	r := newRig(t)
	defer r.close()
	srv := r.rng.ServerID()
	member := newRawPeer(t, r.net)
	member.register(t, srv)
	published := r.rng.DispatchStats().Published

	const strangers = 50
	for i := 0; i < strangers; i++ {
		p := newRawPeer(t, r.net)
		p.sendBatch(t, srv, 1, 1)
		// The host handles one source's traffic in order: once a service
		// call is answered, the batch before it has been handled.
		call, err := wire.NewMessage(p.id, srv, wire.KindServiceCall, serviceCallBody{Provider: srv, Op: "dispatch.stats"})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ep.Send(call); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return len(p.received(wire.KindServiceReply)) == 1 })
		if acks := p.received(wire.KindEventBatchAck); len(acks) != 0 {
			t.Fatalf("an unregistered publisher was acked %d times", len(acks))
		}
	}
	if got := r.rng.DispatchStats().Published; got != published {
		t.Fatalf("%d events from unregistered publishers were ingested", got-published)
	}

	member.sendBatch(t, srv, 1, 1)
	waitFor(t, func() bool { return len(member.received(wire.KindEventBatchAck)) == 1 })
	if got := r.rng.DispatchStats().Published; got != published+1 {
		t.Fatalf("Published = %d after the registered publisher's event, want %d", got, published+1)
	}
	r.host.mu.Lock()
	_, kept := r.host.out[member.id]
	left := len(r.host.out)
	r.host.mu.Unlock()
	if left != 1 || !kept {
		t.Fatalf("the host holds %d endpoints (registered publisher's kept: %v), want only the registered one", left, kept)
	}
}
