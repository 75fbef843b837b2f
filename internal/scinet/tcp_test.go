package scinet

import (
	"fmt"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/location"
	"sci/internal/server"
	"sci/internal/transport"
)

// TestJoinOverSeparateTCPNetworks: two fabrics on their own TCP networks,
// where only the joiner knows the bootstrap's address. The join, the
// joiner's interest and the events it subscribed to all cross; every event
// the bootstrap publishes arrives exactly once, over the connection the
// joiner dialed.
func TestJoinOverSeparateTCPNetworks(t *testing.T) {
	defer leak.Check(t)()
	var fabrics [2]*Fabric
	var nets [2]*transport.TCP
	for i := range fabrics {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("r%d", i),
			Coverage:       location.Path(fmt.Sprintf("campus/r%d", i)),
			BatchMaxEvents: 8,
			BatchMaxDelay:  2 * time.Millisecond,
		})
		defer rng.Close()
		nets[i] = transport.NewTCP(nil)
		defer nets[i].Close()
		f, err := NewFabric(rng, nets[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabrics[i] = f
	}
	boot, joiner := fabrics[0], fabrics[1]
	addr, ok := nets[0].Directory().Lookup(boot.NodeID())
	if !ok {
		t.Fatal("bootstrap address not registered")
	}
	nets[1].Directory().Register(boot.NodeID(), addr)
	if err := joiner.Join(boot.NodeID()); err != nil {
		t.Fatal(err)
	}

	recv := newCounter()
	flt := event.Filter{Type: ctxtype.TemperatureCelsius}
	if _, err := joiner.SubscribeRemote(guid.New(guid.KindApplication), flt, recv.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return boot.knowsInterest(joiner.NodeID()) && boot.hasTap() })

	const n = 64
	if err := boot.Range().PublishAll(makeEvents(n, clock.Real())); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return recv.total() >= n })
	if !recv.exactlyOnce(n) {
		t.Fatalf("deliveries not exactly-once: %d events, %d deliveries", len(recv.seen), recv.total())
	}
}
