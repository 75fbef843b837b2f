// Package transport carries wire.Messages between SCI components that are
// addressed by GUID rather than by network address (the paper's Section 3
// overlay premise).
//
// Two implementations are provided:
//
//   - Memory: an in-process network with configurable per-message latency
//     and loss, driven by an injectable clock. The simulation experiments
//     (E1, E10) run thousands of Ranges on one machine over this network.
//   - TCP: a real network over net.Listen/net.Dial with a Directory mapping
//     GUIDs to listen addresses, used by cmd/scid deployments and the
//     integration tests.
//
// Both deliver messages to an attached Handler. Delivery per (src,dst) pair
// is ordered unless latency jitter is configured on the Memory network
// (reordering under jitter is deliberate: the overlay must tolerate it).
package transport

import (
	"errors"
	"fmt"
	"sync"

	"sci/internal/guid"
	"sci/internal/wire"
)

// Handler consumes an inbound message. Handlers run on the endpoint's
// delivery goroutine; blocking delays only that endpoint's inbox.
type Handler func(wire.Message)

// Endpoint is one attached component's connection to a Network.
type Endpoint interface {
	// ID returns the GUID this endpoint is addressable as.
	ID() guid.GUID
	// Send dispatches m to m.Dst. Send never blocks on the destination's
	// handler; it returns ErrUnknownDestination when the destination is not
	// attached (Memory) or not in the Directory (TCP).
	Send(m wire.Message) error
	// Close detaches the endpoint; its inbox drains and its handler stops.
	Close() error
}

// Network attaches endpoints.
type Network interface {
	// Attach registers id and begins delivering its traffic to h.
	Attach(id guid.GUID, h Handler) (Endpoint, error)
	// Close shuts the whole network down.
	Close() error
}

// Common errors.
var (
	ErrUnknownDestination = errors.New("transport: unknown destination")
	ErrClosed             = errors.New("transport: closed")
	// ErrUnreachable reports a send to an endpoint the network cannot reach
	// (Memory.Partition): the message is lost.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrProtocolVersion reports a connection whose hello exchange did not
	// establish the same protocol version on both sides: the peer stated
	// another version, answered with something else, or did not answer
	// within the connect bound. The connection is closed, never downgraded;
	// the next Send redials.
	ErrProtocolVersion = errors.New("transport: protocol version not established")
)

// WireStats summarises an endpoint's wire-level activity: its live
// connections by encoding — "binary" for each live TCP connection,
// "native" for a Memory endpoint, which has no wire — and the total bytes
// that crossed the wire in each direction.
type WireStats struct {
	Codecs        map[string]int
	BytesSent     uint64
	BytesReceived uint64
}

// WireStatser is implemented by endpoints that can report wire statistics.
type WireStatser interface {
	WireStats() WireStats
}

// inbox is an unbounded FIFO with a wake channel, drained by one goroutine.
// Unbounded is the right choice here: senders must never block (a Memory
// send may run on a clock callback), and the simulation experiments bound
// traffic externally.
type inbox struct {
	mu     sync.Mutex
	queue  []wire.Message
	closed bool
	wake   chan struct{}
}

func newInbox() *inbox {
	return &inbox{wake: make(chan struct{}, 1)}
}

// put enqueues m; reports false if the inbox is closed.
func (in *inbox) put(m wire.Message) bool {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	in.queue = append(in.queue, m)
	in.mu.Unlock()
	select {
	case in.wake <- struct{}{}:
	default:
	}
	return true
}

// takeAll moves every queued message into buf under one lock acquisition,
// leaving the queue empty but its backing array in place for reuse. The
// returned slice aliases buf's storage.
func (in *inbox) takeAll(buf []wire.Message) []wire.Message {
	in.mu.Lock()
	defer in.mu.Unlock()
	buf = append(buf[:0], in.queue...)
	for i := range in.queue {
		in.queue[i] = wire.Message{}
	}
	in.queue = in.queue[:0]
	return buf
}

func (in *inbox) close() {
	in.mu.Lock()
	in.closed = true
	in.queue = nil
	in.mu.Unlock()
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// drainBatch empties the inbox into buf; when the inbox is already empty it
// blocks on the wake channel unless the inbox has closed (done=true).
func (in *inbox) drainBatch(buf []wire.Message) (out []wire.Message, done bool) {
	buf = in.takeAll(buf)
	if len(buf) > 0 {
		return buf, false
	}
	if in.isClosed() {
		return buf, true
	}
	<-in.wake
	return in.takeAll(buf), false
}

func (in *inbox) isClosed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// drainLoop delivers queued messages to h until the inbox closes. Each
// wakeup drains the whole backlog into a reused slice under one lock
// acquisition instead of re-locking per message, so a burst of inbound
// traffic costs one lock round trip and one wake.
func (in *inbox) drainLoop(h Handler) {
	var buf []wire.Message
	for {
		batch, done := in.drainBatch(buf[:0])
		for i := range batch {
			h(batch[i])
			batch[i] = wire.Message{} // release body references while buf is reused
		}
		if done {
			return
		}
		buf = batch
	}
}

// Validate checks that a message is sendable.
func validateOutbound(m wire.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Dst.IsNil() {
		return fmt.Errorf("%w: nil destination", wire.ErrBadMessage)
	}
	return nil
}
