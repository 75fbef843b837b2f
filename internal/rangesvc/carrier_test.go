package rangesvc

// Tests for a credit report claimed by an event.batch whose send fails: the
// report must survive its failed carrier and leave as a standalone
// event.batch_ack once the link is back, in both directions (Host deliveries
// and Connector publishes).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/profile"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

var errLinkDown = errors.New("test: link down")

// downNet attaches endpoints to a memory network through a switch: while
// down is set their sends fail, as a broken TCP connection's do, whatever
// their destination. It records every message its endpoints offer, and
// whether the send was refused.
type downNet struct {
	*transport.Memory
	down atomic.Bool

	mu      sync.Mutex
	offered []offer
}

// offer is one message a downNet endpoint was asked to send.
type offer struct {
	m       wire.Message
	refused bool
}

func (n *downNet) Attach(id guid.GUID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Memory.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return downEndpoint{Endpoint: ep, net: n}, nil
}

// sent lists the messages of one kind its endpoints offered, refused or
// passed on.
func (n *downNet) sent(kind wire.Kind, refused bool) []wire.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []wire.Message
	for _, o := range n.offered {
		if o.m.Kind == kind && o.refused == refused {
			out = append(out, o.m)
		}
	}
	return out
}

type downEndpoint struct {
	transport.Endpoint
	net *downNet
}

func (e downEndpoint) Send(m wire.Message) error {
	down := e.net.down.Load()
	e.net.mu.Lock()
	e.net.offered = append(e.net.offered, offer{m: m, refused: down})
	e.net.mu.Unlock()
	if down {
		return errLinkDown
	}
	return e.Endpoint.Send(m)
}

// sendEvent ships an event to a remote by GUID through its endpoint's
// coalescer, creating the endpoint on first use: the tests' way to push
// deliveries without a subscription.
func (h *Host) sendEvent(to guid.GUID, e event.Event) {
	if ep := h.endpointFor(to); ep != nil {
		ep.Add(e)
	}
}

// sendEvents ships a run of events to a remote by GUID, as sendEvent does.
func (h *Host) sendEvents(to guid.GUID, events []event.Event) {
	if ep := h.endpointFor(to); ep != nil {
		ep.AddAll(events)
	}
}

// burstFrom is n readings from one source.
func burstFrom(src guid.GUID, base, n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = mkReading(src, uint64(base+i))
	}
	return out
}

// creditOf is the credit report a message carries; it fails the test if
// there is none.
func creditOf(t *testing.T, m wire.Message) wire.BatchCredit {
	t.Helper()
	credit, ok := m.BatchCreditInfo()
	if !ok {
		t.Fatalf("%s message carries no credit", m.Kind)
	}
	return credit
}

// TestHostFailedCarrierRenotesCredit: a report owed to a publisher is
// claimed by a delivery batch to it whose send fails. Once the link is
// back, the window timer ships the claimed report as a standalone ack.
func TestHostFailedCarrierRenotesCredit(t *testing.T) {
	clk := clock.NewManual(epoch)
	rng := server.New(server.Config{
		Name:           "level-10",
		Clock:          clk,
		BatchMaxEvents: 4,
		BatchMaxDelay:  50 * time.Millisecond,
	})
	link := &downNet{Memory: transport.NewMemory(transport.MemoryConfig{Clock: clk})}
	host, err := NewHost(rng, link, clk)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{rng: rng, host: host, net: link.Memory, clk: clk}
	defer r.close()
	srv := rng.ServerID()
	pub := newRawPeer(t, r.net)
	pub.register(t, srv)

	pub.sendBatch(t, srv, 1, 1) // the leading report leaves at once
	waitFor(t, func() bool { return len(pub.received(wire.KindEventBatchAck)) == 1 })
	pub.sendBatch(t, srv, 2, 10) // no news: the report waits for the window
	// The host handles one endpoint's traffic in order: once a service call
	// is answered, the batch before it has been noted.
	call, err := wire.NewMessage(pub.id, srv, wire.KindServiceCall, serviceCallBody{Provider: srv, Op: "dispatch.stats"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.ep.Send(call); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(pub.received(wire.KindServiceReply)) == 1 })

	link.down.Store(true)
	r.host.sendEvents(pub.id, burstFrom(guid.New(guid.KindDevice), 0, 4)) // a full batch leaves at once
	carriers := link.sent(wire.KindEventBatch, true)
	if len(carriers) != 1 {
		t.Fatalf("%d delivery batches refused, want 1", len(carriers))
	}
	if credit := creditOf(t, carriers[0]); credit.Events != 2 {
		t.Fatalf("the failed carrier claimed a report of %d events, want 2", credit.Events)
	}
	if n := r.host.AcksPiggybacked.Value(); n != 0 {
		t.Fatalf("AcksPiggybacked = %d after a failed carrier, want 0", n)
	}

	link.down.Store(false)
	r.clk.Advance(50 * time.Millisecond)
	waitFor(t, func() bool { return len(pub.received(wire.KindEventBatchAck)) == 2 })
	if credit := creditOf(t, pub.received(wire.KindEventBatchAck)[1]); credit.Events != 2 {
		t.Fatalf("the standalone ack covers %d events, want the claimed 2", credit.Events)
	}
}

// TestConnectorFailedCarrierRenotesCredit: a report a connector owes the
// host is claimed by a publish whose send fails. Once the link is back, the
// window timer ships the claimed report as a standalone ack.
func TestConnectorFailedCarrierRenotesCredit(t *testing.T) {
	r := batchRig(t, 4, 50*time.Millisecond)
	defer r.close()
	srv := r.rng.ServerID()
	link := &downNet{Memory: r.net}
	var received atomic.Int64
	c, err := NewBatchConnector(guid.New(guid.KindApplication), "duplex", link,
		func(events []event.Event) { received.Add(int64(len(events))) }, r.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(srv, profile.Profile{}, true); err != nil {
		t.Fatal(err)
	}

	src := guid.New(guid.KindDevice)
	r.host.sendEvents(c.ID(), burstFrom(src, 0, 4)) // the leading report leaves at once
	waitFor(t, func() bool { return c.AcksSent() == 1 })
	r.host.sendEvents(c.ID(), burstFrom(src, 4, 4)) // no news: the report waits for the window
	// The connector handles the host's traffic in order: once a call is
	// answered, the batch before it has been noted.
	if _, err := c.Call(srv, "dispatch.stats", nil); err != nil {
		t.Fatal(err)
	}

	link.down.Store(true)
	if err := c.PublishAll(burstFrom(c.ID(), 100, 4)); err == nil {
		t.Fatal("publish over a link that is down succeeded")
	}
	carriers := link.sent(wire.KindEventBatch, true)
	if len(carriers) != 1 {
		t.Fatalf("%d published batches refused, want 1", len(carriers))
	}
	if credit := creditOf(t, carriers[0]); credit.Events != 4 {
		t.Fatalf("the failed carrier claimed a report of %d events, want 4", credit.Events)
	}
	if n := c.AcksPiggybacked(); n != 0 {
		t.Fatalf("AcksPiggybacked = %d after a failed carrier, want 0", n)
	}

	link.down.Store(false)
	r.clk.Advance(connAckWindow)
	waitFor(t, func() bool { return c.AcksSent() == 2 })
	acks := link.sent(wire.KindEventBatchAck, false)
	if credit := creditOf(t, acks[len(acks)-1]); credit.Events != 4 {
		t.Fatalf("the standalone ack covers %d events, want the claimed 4", credit.Events)
	}
	waitFor(t, func() bool { return received.Load() == 8 })
}
