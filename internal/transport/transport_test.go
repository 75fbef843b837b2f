package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/wire"
)

func mkMsg(t testing.TB, src, dst guid.GUID, body any) wire.Message {
	t.Helper()
	m, err := wire.NewMessage(src, dst, wire.KindServiceCall, body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// recorder collects received messages.
type recorder struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (r *recorder) handle(m wire.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recorder) all() []wire.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]wire.Message, len(r.msgs))
	copy(out, r.msgs)
	return out
}

func TestMemoryBasicDelivery(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var rec recorder
	epA, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(b, rec.handle); err != nil {
		t.Fatal(err)
	}
	if epA.ID() != a {
		t.Fatal("endpoint ID mismatch")
	}
	for i := 0; i < 10; i++ {
		if err := epA.Send(mkMsg(t, a, b, map[string]int{"i": i})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rec.count() == 10 })
	// Per-pair FIFO with zero latency.
	for i, m := range rec.all() {
		var body map[string]int
		if err := m.DecodeBody(&body); err != nil {
			t.Fatal(err)
		}
		if body["i"] != i {
			t.Fatalf("out of order: got %d at %d", body["i"], i)
		}
	}
	if n.Sent.Value() != 10 || n.Delivered.Value() != 10 || n.Lost.Value() != 0 {
		t.Fatalf("counters: sent=%d delivered=%d lost=%d",
			n.Sent.Value(), n.Delivered.Value(), n.Lost.Value())
	}
}

func TestMemoryUnknownDestination(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	a := guid.New(guid.KindServer)
	ep, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	err = ep.Send(mkMsg(t, a, guid.New(guid.KindServer), nil))
	if !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("want ErrUnknownDestination, got %v", err)
	}
}

func TestMemoryRejectsInvalidAndDuplicates(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	a := guid.New(guid.KindServer)
	if _, err := n.Attach(a, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	ep, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(a, func(wire.Message) {}); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := ep.Send(wire.Message{}); err == nil {
		t.Fatal("invalid message accepted")
	}
	// Send with nil destination.
	m := mkMsg(t, a, a, nil)
	m.Dst = guid.Nil
	if err := ep.Send(m); err == nil {
		t.Fatal("nil destination accepted")
	}
}

func TestMemoryLatencyWithManualClock(t *testing.T) {
	clk := clock.NewManual(time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC))
	n := NewMemory(MemoryConfig{Clock: clk, BaseLatency: 10 * time.Millisecond})
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var rec recorder
	epA, _ := n.Attach(a, func(wire.Message) {})
	if _, err := n.Attach(b, rec.handle); err != nil {
		t.Fatal(err)
	}
	if err := epA.Send(mkMsg(t, a, b, nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // real time passes; manual clock hasn't
	if rec.count() != 0 {
		t.Fatal("message delivered before clock advance")
	}
	clk.Advance(10 * time.Millisecond)
	waitFor(t, func() bool { return rec.count() == 1 })
}

func TestMemoryLoss(t *testing.T) {
	n := NewMemory(MemoryConfig{Loss: 1.0})
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var rec recorder
	epA, _ := n.Attach(a, func(wire.Message) {})
	if _, err := n.Attach(b, rec.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := epA.Send(mkMsg(t, a, b, nil)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if rec.count() != 0 {
		t.Fatal("loss=1.0 still delivered")
	}
	if n.Lost.Value() != 5 {
		t.Fatalf("Lost = %d, want 5", n.Lost.Value())
	}
}

func TestMemoryPartition(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var rec recorder
	epA, _ := n.Attach(a, func(wire.Message) {})
	if _, err := n.Attach(b, rec.handle); err != nil {
		t.Fatal(err)
	}
	n.Partition(b)
	if err := epA.Send(mkMsg(t, a, b, nil)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to a partitioned endpoint: %v, want ErrUnreachable", err)
	}
	time.Sleep(10 * time.Millisecond)
	if rec.count() != 0 {
		t.Fatal("partitioned endpoint received message")
	}
	n.Unpartition(b)
	if err := epA.Send(mkMsg(t, a, b, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 })
}

func TestMemoryEndpointClose(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	epA, _ := n.Attach(a, func(wire.Message) {})
	epB, _ := n.Attach(b, func(wire.Message) {})
	if err := epB.Close(); err != nil {
		t.Fatal(err)
	}
	err := epA.Send(mkMsg(t, a, b, nil))
	if !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("send to closed endpoint: %v", err)
	}
	// Re-attach after close must work.
	if _, err := n.Attach(b, func(wire.Message) {}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryNetworkClose(t *testing.T) {
	n := NewMemory(MemoryConfig{})
	a := guid.New(guid.KindServer)
	ep, _ := n.Attach(a, func(wire.Message) {})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := ep.Send(mkMsg(t, a, a, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := n.Attach(guid.New(guid.KindServer), func(wire.Message) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close: %v", err)
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	defer leak.Check(t)()
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	dst := guid.New(guid.KindServer)
	var received atomic.Int64
	if _, err := n.Attach(dst, func(wire.Message) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const senders, per = 8, 250
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := guid.New(guid.KindEntity)
			ep, err := n.Attach(src, func(wire.Message) {})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := ep.Send(mkMsg(t, src, dst, nil)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return received.Load() == senders*per })
}

func TestTCPBasicExchange(t *testing.T) {
	dir := &Directory{}
	n := NewTCP(dir)
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var recA, recB recorder
	epA, err := n.Attach(a, recA.handle)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Attach(b, recB.handle)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Len() != 2 {
		t.Fatalf("directory has %d entries, want 2", dir.Len())
	}
	for i := 0; i < 20; i++ {
		if err := epA.Send(mkMsg(t, a, b, map[string]int{"i": i})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return recB.count() == 20 })
	for i, m := range recB.all() {
		var body map[string]int
		if err := m.DecodeBody(&body); err != nil {
			t.Fatal(err)
		}
		if body["i"] != i {
			t.Fatalf("TCP out of order at %d: %d", i, body["i"])
		}
	}
	// Reverse direction uses B's own dialed connection.
	if err := epB.Send(mkMsg(t, b, a, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recA.count() == 1 })
}

func TestTCPUnknownDestination(t *testing.T) {
	n := NewTCP(nil)
	defer n.Close()
	a := guid.New(guid.KindServer)
	ep, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	err = ep.Send(mkMsg(t, a, guid.New(guid.KindServer), nil))
	if !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("want ErrUnknownDestination, got %v", err)
	}
}

func TestTCPEndpointCloseUnregisters(t *testing.T) {
	dir := &Directory{}
	n := NewTCP(dir)
	defer n.Close()
	a := guid.New(guid.KindServer)
	ep, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dir.Lookup(a); !ok {
		t.Fatal("attach did not register address")
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := dir.Lookup(a); ok {
		t.Fatal("close did not unregister address")
	}
}

func TestTCPSendAfterPeerRestart(t *testing.T) {
	dir := &Directory{}
	n := NewTCP(dir)
	defer n.Close()
	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	epA, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	epB, err := n.Attach(b, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Send(mkMsg(t, a, b, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 })

	// Restart B on a new port.
	if err := epB.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(b, rec.handle); err != nil {
		t.Fatal(err)
	}
	// Early sends may be written into the stale cached connection's kernel
	// buffer and vanish with the RST, or fail outright; either way the
	// transport must detect the dead connection and redial. Keep sending
	// until a message actually lands.
	deadline := time.Now().Add(5 * time.Second)
	for rec.count() < 2 && time.Now().Before(deadline) {
		_ = epA.Send(mkMsg(t, a, b, nil)) // errors expected while stale conn is flushed out
		time.Sleep(10 * time.Millisecond)
	}
	if rec.count() < 2 {
		t.Fatal("send never recovered after peer restart")
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	defer leak.Check(t)()
	n := NewTCP(nil)
	defer n.Close()
	dst := guid.New(guid.KindServer)
	var received atomic.Int64
	if _, err := n.Attach(dst, func(wire.Message) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const senders, per = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := guid.New(guid.KindEntity)
			ep, err := n.Attach(src, func(wire.Message) {})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := ep.Send(mkMsg(t, src, dst, nil)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return received.Load() == senders*per })
}

func BenchmarkMemorySend(b *testing.B) {
	n := NewMemory(MemoryConfig{})
	defer n.Close()
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var done atomic.Int64
	ep, err := n.Attach(src, func(wire.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := n.Attach(dst, func(wire.Message) { done.Add(1) }); err != nil {
		b.Fatal(err)
	}
	m := mkMsg(b, src, dst, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Send(m); err != nil {
			b.Fatal(err)
		}
	}
	for int(done.Load()) < b.N {
		time.Sleep(time.Microsecond)
	}
}

func BenchmarkTCPSend(b *testing.B) {
	n := NewTCP(nil)
	defer n.Close()
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	var done atomic.Int64
	ep, err := n.Attach(src, func(wire.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := n.Attach(dst, func(wire.Message) { done.Add(1) }); err != nil {
		b.Fatal(err)
	}
	m := mkMsg(b, src, dst, map[string]string{"k": "v"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Send(m); err != nil {
			b.Fatal(err)
		}
	}
	for int(done.Load()) < b.N {
		time.Sleep(time.Microsecond)
	}
}
