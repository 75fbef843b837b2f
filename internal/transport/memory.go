package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
	"sci/internal/metrics"
	"sci/internal/wire"
)

// MemoryConfig tunes the simulated in-process network.
type MemoryConfig struct {
	// Clock drives latency simulation; defaults to the real clock.
	Clock clock.Clock
	// BaseLatency is the fixed one-way delivery delay (default 0: deliver
	// on the sender's goroutine path immediately, fully deterministic).
	BaseLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1) that a message is silently dropped.
	Loss float64
	// Seed makes jitter/loss deterministic; 0 uses a fixed default seed so
	// simulations are reproducible unless explicitly varied.
	Seed int64
}

// Memory is an in-process Network. Construct with NewMemory.
type Memory struct {
	cfg MemoryConfig
	clk clock.Clock

	mu     sync.RWMutex
	eps    map[guid.GUID]*memEndpoint
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	wg sync.WaitGroup

	// Metrics: sent counts every Send; delivered counts handler handoffs;
	// lost counts simulated drops.
	Sent      metrics.Counter
	Delivered metrics.Counter
	Lost      metrics.Counter
}

// NewMemory builds an in-process network.
func NewMemory(cfg MemoryConfig) *Memory {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 20030617 // workshop date: fixed for reproducibility
	}
	return &Memory{
		cfg: cfg,
		clk: cfg.Clock,
		eps: make(map[guid.GUID]*memEndpoint),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Attach implements Network.
func (n *Memory) Attach(id guid.GUID, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, wire.ErrBadMessage
	}
	ep := &memEndpoint{id: id, net: n, in: newInbox()}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := n.eps[id]; dup {
		n.mu.Unlock()
		return nil, duplicateAttachError(id)
	}
	n.eps[id] = ep
	n.wg.Add(1)
	n.mu.Unlock()

	go func() {
		defer n.wg.Done()
		ep.in.drainLoop(h)
	}()
	return ep, nil
}

func duplicateAttachError(id guid.GUID) error {
	return &AttachError{ID: id}
}

// AttachError reports a duplicate attach.
type AttachError struct{ ID guid.GUID }

func (e *AttachError) Error() string {
	return "transport: endpoint already attached: " + e.ID.String()
}

// Close implements Network.
func (n *Memory) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[guid.GUID]*memEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.in.close()
	}
	n.wg.Wait()
	return nil
}

// Partition simulates a network partition by detaching the given endpoint's
// inbox from delivery without closing it: a send to it fails with
// ErrUnreachable, as a send on a broken TCP connection fails, and the
// message is lost. Heal with Unpartition. Used by failure-injection tests.
func (n *Memory) Partition(id guid.GUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[id]; ok {
		ep.partitioned.Store(true)
	}
}

// Unpartition heals a partition.
func (n *Memory) Unpartition(id guid.GUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[id]; ok {
		ep.partitioned.Store(false)
	}
}

// deliver routes m to its destination applying loss and latency.
func (n *Memory) deliver(m wire.Message) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	dst, ok := n.eps[m.Dst]
	n.mu.RUnlock()
	if !ok {
		return ErrUnknownDestination
	}
	n.Sent.Inc()

	if n.cfg.Loss > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < n.cfg.Loss
		n.rngMu.Unlock()
		if lost {
			n.Lost.Inc()
			return nil // silent loss, like the real world
		}
	}
	if dst.partitioned.Load() {
		n.Lost.Inc()
		return ErrUnreachable
	}

	delay := n.cfg.BaseLatency
	if n.cfg.Jitter > 0 {
		n.rngMu.Lock()
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.rngMu.Unlock()
	}
	if delay <= 0 {
		if dst.in.put(m) {
			n.Delivered.Inc()
		}
		return nil
	}
	n.clk.AfterFunc(delay, func() {
		if dst.in.put(m) {
			n.Delivered.Inc()
		}
	})
	return nil
}

type memEndpoint struct {
	id          guid.GUID
	net         *Memory
	in          *inbox
	partitioned atomic.Bool
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() guid.GUID { return ep.id }

// Send implements Endpoint.
func (ep *memEndpoint) Send(m wire.Message) error {
	if err := validateOutbound(m); err != nil {
		return err
	}
	return ep.net.deliver(m)
}

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.net.mu.Lock()
	if ep.net.eps[ep.id] == ep {
		delete(ep.net.eps, ep.id)
	}
	ep.net.mu.Unlock()
	ep.in.close()
	return nil
}

// WireStats implements WireStatser. No bytes cross a wire in process: every
// message, batch pointer included, is handed over as is ("native").
func (ep *memEndpoint) WireStats() WireStats {
	return WireStats{Codecs: map[string]int{"native": 1}}
}

var (
	_ Network     = (*Memory)(nil)
	_ Endpoint    = (*memEndpoint)(nil)
	_ WireStatser = (*memEndpoint)(nil)
)
