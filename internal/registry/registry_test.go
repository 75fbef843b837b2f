package registry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/guid"
)

var epoch = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

type events struct {
	mu  sync.Mutex
	arr []Registration
	dep []Registration
	why []Reason
}

func (e *events) watcher() Watcher {
	return FuncWatcher{
		Arrival: func(r Registration) {
			e.mu.Lock()
			e.arr = append(e.arr, r)
			e.mu.Unlock()
		},
		Departure: func(r Registration, reason Reason) {
			e.mu.Lock()
			e.dep = append(e.dep, r)
			e.why = append(e.why, reason)
			e.mu.Unlock()
		},
	}
}

func (e *events) counts() (int, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.arr), len(e.dep)
}

func newTestRegistrar() (*Registrar, *clock.Manual) {
	clk := clock.NewManual(epoch)
	r := New(Config{Clock: clk, Lease: 30 * time.Second, SweepEvery: 5 * time.Second})
	return r, clk
}

func TestRegisterLookupDeregister(t *testing.T) {
	r, _ := newTestRegistrar()
	defer r.Close()
	var ev events
	cancel := r.Watch(ev.watcher())
	defer cancel()

	id := guid.New(guid.KindEntity)
	reg, err := r.Register(id, "door")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Kind != guid.KindEntity || reg.Name != "door" {
		t.Fatalf("registration = %+v", reg)
	}
	if !reg.Expires.Equal(epoch.Add(30 * time.Second)) {
		t.Fatalf("expiry = %v", reg.Expires)
	}
	if !r.IsLive(id) || r.Len() != 1 {
		t.Fatal("lookup after register failed")
	}
	if a, d := ev.counts(); a != 1 || d != 0 {
		t.Fatalf("events = %d arrivals, %d departures", a, d)
	}

	if err := r.Deregister(id); err != nil {
		t.Fatal(err)
	}
	if r.IsLive(id) {
		t.Fatal("still live after deregister")
	}
	if a, d := ev.counts(); a != 1 || d != 1 {
		t.Fatalf("events = %d arrivals, %d departures", a, d)
	}
	ev.mu.Lock()
	if ev.why[0] != ReasonDeregistered {
		t.Fatalf("reason = %v", ev.why[0])
	}
	ev.mu.Unlock()
}

func TestRegisterValidation(t *testing.T) {
	r, _ := newTestRegistrar()
	defer r.Close()
	if _, err := r.Register(guid.Nil, "x"); err == nil {
		t.Fatal("nil entity accepted")
	}
	if _, err := r.Register(guid.New(guid.KindEntity), ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Deregister(guid.New(guid.KindEntity)); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("deregister unknown: %v", err)
	}
	if err := r.Renew(guid.New(guid.KindEntity)); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("renew unknown: %v", err)
	}
}

func TestReRegisterRenewsWithoutSecondArrival(t *testing.T) {
	r, clk := newTestRegistrar()
	defer r.Close()
	var ev events
	r.Watch(ev.watcher())

	id := guid.New(guid.KindEntity)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	if a, _ := ev.counts(); a != 1 {
		t.Fatalf("arrivals = %d, want 1", a)
	}
	reg, _ := r.Lookup(id)
	if !reg.Expires.Equal(epoch.Add(40 * time.Second)) {
		t.Fatalf("expiry not renewed: %v", reg.Expires)
	}
}

func TestLeaseExpiry(t *testing.T) {
	r, clk := newTestRegistrar()
	defer r.Close()
	var ev events
	r.Watch(ev.watcher())

	id := guid.New(guid.KindEntity)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	// Renew at 20s: lease now runs to 50s.
	clk.Advance(20 * time.Second)
	if err := r.Renew(id); err != nil {
		t.Fatal(err)
	}
	// At 45s the entity is still live (sweeps at 25,30,...,45).
	clk.Advance(25 * time.Second)
	if !r.IsLive(id) {
		t.Fatal("expired too early")
	}
	// At 55s the 50s lease has lapsed.
	clk.Advance(10 * time.Second)
	if r.IsLive(id) {
		t.Fatal("lease did not expire")
	}
	if _, d := ev.counts(); d != 1 {
		t.Fatalf("departures = %d", d)
	}
	ev.mu.Lock()
	if ev.why[0] != ReasonExpired {
		t.Fatalf("reason = %v", ev.why[0])
	}
	ev.mu.Unlock()
}

func TestExpireNow(t *testing.T) {
	r, clk := newTestRegistrar()
	defer r.Close()
	id := guid.New(guid.KindEntity)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	// Move time past the lease without letting the sweep run (Advance fires
	// sweeps, so instead create a fresh registrar state via direct call).
	clk.Advance(29 * time.Second)
	r.ExpireNow()
	if !r.IsLive(id) {
		t.Fatal("expired before lease end")
	}
	clk.Advance(2 * time.Second)
	if r.IsLive(id) {
		t.Fatal("sweep missed expiry")
	}
}

// TestRegistrarGeneration: the generation moves exactly when the live set
// changes — an arrival, a deregistration, an expiry — and stays put on a
// renewal or a repeated Register.
func TestRegistrarGeneration(t *testing.T) {
	r, clk := newTestRegistrar()
	defer r.Close()
	g := r.Generation()
	if g == 0 {
		t.Fatal("a fresh registrar's generation is zero")
	}
	step := func(what string, moves bool) {
		t.Helper()
		now := r.Generation()
		if moved := now != g; moved != moves {
			t.Fatalf("%s: generation %d → %d, want moved=%v", what, g, now, moves)
		}
		g = now
	}
	a, b := guid.New(guid.KindDevice), guid.New(guid.KindDevice)
	if _, err := r.Register(a, "a"); err != nil {
		t.Fatal(err)
	}
	step("new Register", true)
	if _, err := r.Register(b, "b"); err != nil {
		t.Fatal(err)
	}
	step("second new Register", true)
	if _, err := r.Register(a, "a"); err != nil {
		t.Fatal(err)
	}
	step("repeated Register", false)
	if err := r.Renew(a); err != nil {
		t.Fatal(err)
	}
	step("Renew", false)
	if err := r.Deregister(a); err != nil {
		t.Fatal(err)
	}
	step("Deregister", true)
	if err := r.Deregister(a); err == nil {
		t.Fatal("second Deregister succeeded")
	}
	step("failed Deregister", false)
	clk.Advance(10 * time.Second)
	r.ExpireNow()
	step("sweep before the lease lapses", false)
	clk.Advance(25 * time.Second)
	if r.IsLive(b) {
		t.Fatal("b outlived its lease")
	}
	step("expiry", true)
}

func TestListAndListKind(t *testing.T) {
	r, _ := newTestRegistrar()
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, err := r.Register(guid.New(guid.KindEntity), "ce"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Register(guid.New(guid.KindApplication), "caa"); err != nil {
			t.Fatal(err)
		}
	}
	all := r.List()
	if len(all) != 8 {
		t.Fatalf("List len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !guid.Less(all[i-1].Entity, all[i].Entity) {
			t.Fatal("List not sorted")
		}
	}
}

func TestWatchCancel(t *testing.T) {
	r, _ := newTestRegistrar()
	defer r.Close()
	var ev events
	cancel := r.Watch(ev.watcher())
	cancel()
	if _, err := r.Register(guid.New(guid.KindEntity), "x"); err != nil {
		t.Fatal(err)
	}
	if a, _ := ev.counts(); a != 0 {
		t.Fatal("cancelled watcher notified")
	}
}

func TestCloseRejectsMutation(t *testing.T) {
	r, _ := newTestRegistrar()
	id := guid.New(guid.KindEntity)
	if _, err := r.Register(id, "x"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.Register(guid.New(guid.KindEntity), "y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
	if err := r.Renew(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("renew after close: %v", err)
	}
	if err := r.Deregister(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("deregister after close: %v", err)
	}
}

func TestReasonString(t *testing.T) {
	if ReasonDeregistered.String() != "deregistered" || ReasonExpired.String() != "expired" {
		t.Fatal("reason names wrong")
	}
	if Reason(9).String() == "" {
		t.Fatal("unknown reason empty")
	}
}

func TestConcurrentRegistrations(t *testing.T) {
	r := New(Config{Lease: time.Minute})
	defer r.Close()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := guid.New(guid.KindEntity)
				if _, err := r.Register(id, "x"); err != nil {
					t.Error(err)
					return
				}
				if err := r.Renew(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", r.Len(), workers*per)
	}
}

func BenchmarkRegisterDeregister(b *testing.B) {
	r := New(Config{Lease: time.Minute})
	defer r.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := guid.New(guid.KindEntity)
		if _, err := r.Register(id, "x"); err != nil {
			b.Fatal(err)
		}
		if err := r.Deregister(id); err != nil {
			b.Fatal(err)
		}
	}
}
