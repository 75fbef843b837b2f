package eventbus

// Tests for per-publisher drop attribution: every event discarded from a
// full subscription queue is counted against its publisher (the explicit
// attribution key of a PublishAllOwnedFrom ingest, or the event's own
// Source), so flow-credit acks can blame the traffic actually causing the
// drops instead of the bus-wide total.

import (
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/metrics"
)

// shares renders a ledger of at most eight origins as a map
// of the origins charged something; the nil key is the overflow entry.
func shares(l *metrics.Ledger) map[guid.GUID]uint64 {
	out := make(map[guid.GUID]uint64)
	for _, s := range l.Top() {
		out[s.Src] = s.N
	}
	return out
}

// parkedSub subscribes with the given queue length and parks the delivery
// goroutine inside the handler after its first delivery, so subsequent
// publishes fill the ring deterministically.
func parkedSub(t *testing.T, b *Bus, queueLen int) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var delivered atomic.Int64
	_, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
		if delivered.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
	}, WithQueueLen(queueLen))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered // ring empty, delivery goroutine parked in the handler
	return func() { close(gate) }
}

func eventsFrom(src guid.GUID, n int, base uint64) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.New(ctxtype.TemperatureCelsius, src, base+uint64(i), t0, nil)
	}
	return out
}

// TestDropOldestBlamesTheFlooder: a hot publisher fills a subscriber's
// ring; an idle publisher's single event then evicts one of the flooder's.
// The drop must be attributed to the flooder — whose traffic is being lost
// — not to the innocent publisher whose arrival triggered the eviction.
func TestDropOldestBlamesTheFlooder(t *testing.T) {
	b := New(nil)
	defer b.Close()
	release := parkedSub(t, b, 4)
	defer release()

	flooder := guid.New(guid.KindDevice)
	idle := guid.New(guid.KindDevice)
	if err := b.PublishAllOwnedFrom(guid.Nil, eventsFrom(flooder, 4, 1)); err != nil {
		t.Fatal(err) // ring now full of the flooder's events
	}
	if err := b.Publish(event.New(ctxtype.TemperatureCelsius, idle, 1, t0, nil)); err != nil {
		t.Fatal(err)
	}
	if got := b.Drops().For(flooder); got != 1 {
		t.Fatalf("Drops().For(flooder) = %d, want 1", got)
	}
	if got := b.Drops().For(idle); got != 0 {
		t.Fatalf("Drops().For(idle) = %d, want 0 — the eviction is not its fault", got)
	}
	if st := b.Stats(); st.Dropped != 1 {
		t.Fatalf("total dropped = %d, want 1", st.Dropped)
	}
}

// TestExplicitAttributionKeyOverridesSource: a PublishAllOwnedFrom ingest
// counts drops against the given endpoint key even though the events carry
// different Source GUIDs — the wire/overlay ingest case, where the link's
// sender, not the original producer, is the traffic to throttle.
func TestExplicitAttributionKeyOverridesSource(t *testing.T) {
	b := New(nil)
	defer b.Close()
	release := parkedSub(t, b, 2)
	defer release()

	endpoint := guid.New(guid.KindApplication)
	producer := guid.New(guid.KindDevice)
	// A run larger than the ring: the whole-ring replacement path. 5 events
	// into 2 slots = 3 drops, all against the endpoint key.
	if err := b.PublishAllOwnedFrom(endpoint, eventsFrom(producer, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if got := b.Drops().For(endpoint); got != 3 {
		t.Fatalf("Drops().For(endpoint) = %d, want 3", got)
	}
	if got := b.Drops().For(producer); got != 0 {
		t.Fatalf("Drops().For(producer) = %d, want 0 — the key overrides Source", got)
	}
	// Later evictions of the retained run still blame the endpoint.
	if err := b.PublishAllOwnedFrom(endpoint, eventsFrom(producer, 1, 9)); err != nil {
		t.Fatal(err)
	}
	if got := b.Drops().For(endpoint); got != 4 {
		t.Fatalf("Drops().For(endpoint) after eviction = %d, want 4", got)
	}
	snap := shares(b.Drops())
	if len(snap) != 1 || snap[endpoint] != 4 {
		t.Fatalf("Drops() = %v, want {endpoint: 4}", snap)
	}
}

// TestDropAttributionSumsToTotal races mixed-source floods against a slow
// subscriber and checks the per-publisher attribution always sums to the
// bus-wide drop total and to the stripes' drop counters (run with -race).
func TestDropAttributionSumsToTotal(t *testing.T) {
	b := New(nil, WithShards(4))
	defer b.Close()
	if _, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius},
		func(event.Event) {}, WithQueueLen(8)); err != nil {
		t.Fatal(err)
	}

	const publishers = 4
	var wg sync.WaitGroup
	keys := make([]guid.GUID, publishers)
	for p := 0; p < publishers; p++ {
		keys[p] = guid.New(guid.KindApplication)
		wg.Add(1)
		go func(key guid.GUID) {
			defer wg.Done()
			src := guid.New(guid.KindDevice)
			for i := 0; i < 200; i++ {
				_ = b.PublishAllOwnedFrom(key, eventsFrom(src, 16, uint64(i*16+1)))
			}
		}(keys[p])
	}
	wg.Wait()

	var attributed, striped uint64
	for _, key := range keys {
		attributed += b.Drops().For(key)
	}
	for _, ss := range b.ShardStats() {
		striped += ss.Dropped
	}
	if total := b.Stats().Dropped; attributed != total || striped != total {
		t.Fatalf("attributed drops = %d, stripes' drops = %d, bus total = %d", attributed, striped, total)
	}
}
