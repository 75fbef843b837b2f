package eventbus

// A reference model of the delivery ring. Random interleavings of Publish,
// PublishAll and PublishAllOwnedFrom drive a handful of subscriptions with
// small rings, while the test parks and releases
// each delivery loop; every delivery, Stats().Dropped and the Drops
// ledger, origin by origin, must match a naive per-event bounded FIFO per subscription.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// modelEvent is one queued event in the model: its Seq and the publisher a
// discard of it is charged to.
type modelEvent struct {
	seq  uint64
	attr guid.GUID
}

// modelSub is one subscription under test plus its reference FIFO.
type modelSub struct {
	typ      ctxtype.Type
	sources  []guid.GUID // nil: any source
	limit    int
	perEvent bool

	queue   []modelEvent // in the ring
	pending [][]uint64   // drained by the loop, deliveries not yet observed
	parked  bool         // the loop is blocked inside the handler

	got     chan []uint64
	release chan struct{}
}

func (m *modelSub) matches(e *event.Event) bool {
	if m.typ != e.Type && m.typ != e.Type.Parent() {
		return false
	}
	return m.sources == nil || slices.Contains(m.sources, e.Source)
}

// enqueue is the naive bounded FIFO: one event at a time, a full queue
// dropping its oldest, drops charged to the discarded event's attribution.
func (m *modelSub) enqueue(ev modelEvent, drops map[guid.GUID]uint64) {
	if len(m.queue) == m.limit {
		drops[m.queue[0].attr]++
		m.queue = m.queue[1:]
	}
	m.queue = append(m.queue, ev)
}

// drainModel is the loop's drain: the whole ring becomes one delivery for a
// batch handler, one delivery per event for a per-event handler.
func (m *modelSub) drainModel() {
	if m.perEvent {
		for _, ev := range m.queue {
			m.pending = append(m.pending, []uint64{ev.seq})
		}
	} else if len(m.queue) > 0 {
		seqs := make([]uint64, len(m.queue))
		for i, ev := range m.queue {
			seqs[i] = ev.seq
		}
		m.pending = append(m.pending, seqs)
	}
	m.queue = nil
}

// ringModel is one run of the model against a live bus.
type ringModel struct {
	t         *testing.T
	b         *Bus
	subs      []*modelSub
	srcs      [3]guid.GUID
	pubs      [2]guid.GUID
	seq       uint64
	drops     map[guid.GUID]uint64
	delivered uint64
}

// expect observes the loop's next delivery and checks it against the model.
func (r *ringModel) expect(i int, m *modelSub) {
	want := m.pending[0]
	m.pending = m.pending[1:]
	select {
	case got := <-m.got:
		if !slices.Equal(got, want) {
			r.t.Fatalf("sub %d (limit %d, per-event %v) delivered %v, model %v",
				i, m.limit, m.perEvent, got, want)
		}
		r.delivered += uint64(len(got))
		m.parked = true
	case <-time.After(5 * time.Second):
		r.t.Fatalf("sub %d: no delivery, model expects %v", i, want)
	}
}

// settle runs every idle loop that now has queued events up to its next
// park: the publish that queued them woke it.
func (r *ringModel) settle() {
	for i, m := range r.subs {
		if !m.parked && len(m.queue) > 0 {
			m.drainModel()
			r.expect(i, m)
		}
	}
}

// releaseSub unparks one loop; it parks again at its next delivery or idles.
func (r *ringModel) releaseSub(i int) {
	m := r.subs[i]
	if !m.parked {
		return
	}
	m.release <- struct{}{}
	m.parked = false
	if len(m.pending) == 0 {
		m.drainModel()
	}
	if len(m.pending) > 0 {
		r.expect(i, m)
	}
}

// publish sends one batch through the chosen API and feeds the model. An
// idle loop is woken by the first run it matches and drains concurrently
// with the rest of the call, so a batch that reaches some idle loop in more
// than one run is published one type-run at a time.
func (r *ringModel) publish(api int, pub guid.GUID, batch []event.Event) {
	runs := [][]event.Event{batch}
	if r.splitNeeded(batch) {
		runs = typeRuns(batch)
	}
	for _, part := range runs {
		var err error
		switch api {
		case 0:
			err = r.b.Publish(part[0])
		case 1:
			err = r.b.PublishAll(part)
		default:
			err = r.b.PublishAllOwnedFrom(pub, slices.Clone(part))
		}
		if err != nil {
			r.t.Fatal(err)
		}
		for k := range part {
			e := &part[k]
			attr := pub
			if attr.IsNil() {
				attr = e.Source
			}
			for _, m := range r.subs {
				if m.matches(e) {
					m.enqueue(modelEvent{seq: e.Seq, attr: attr}, r.drops)
				}
			}
		}
		r.settle()
	}
}

func (r *ringModel) splitNeeded(batch []event.Event) bool {
	for _, m := range r.subs {
		if m.parked {
			continue
		}
		hit := 0
		for _, run := range typeRuns(batch) {
			if slices.ContainsFunc(run, func(e event.Event) bool { return m.matches(&e) }) {
				hit++
			}
		}
		if hit > 1 {
			return true
		}
	}
	return false
}

func typeRuns(batch []event.Event) [][]event.Event {
	var out [][]event.Event
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Type == batch[i].Type {
			j++
		}
		out = append(out, batch[i:j])
		i = j
	}
	return out
}

// checkRingModel decodes data into subscriptions and operations, runs them
// against a bus and the model, and compares the two.
func checkRingModel(t *testing.T, data []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	r := &ringModel{t: t, b: New(nil, WithShards(2)), drops: make(map[guid.GUID]uint64)}
	for i := range r.srcs {
		r.srcs[i] = guid.New(guid.KindDevice)
	}
	for i := range r.pubs {
		r.pubs[i] = guid.New(guid.KindDevice)
	}
	types := [3]ctxtype.Type{"fz.a", "fz.b", "fz"}

	for n := 1 + int(next()%4); n > 0; n-- {
		c := next()
		m := &modelSub{
			limit:    1 + int(c&7),
			typ:      types[int(c>>4&3)%3],
			perEvent: c>>6&1 == 1,
			got:      make(chan []uint64),
			release:  make(chan struct{}),
		}
		opts := []SubOption{WithQueueLen(m.limit)}
		if c>>7 == 1 {
			m.sources = r.srcs[:2]
			opts = append(opts, WithSources(guid.NewSorted(m.sources...)))
		}
		var err error
		if m.perEvent {
			_, err = r.b.Subscribe(event.Filter{Type: m.typ}, func(e event.Event) {
				m.got <- []uint64{e.Seq}
				<-m.release
			}, opts...)
		} else {
			_, err = r.b.SubscribeBatch(event.Filter{Type: m.typ}, func(evs []event.Event) {
				seqs := make([]uint64, len(evs))
				for i := range evs {
					seqs[i] = evs[i].Seq
				}
				m.got <- seqs
				<-m.release
			}, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.subs = append(r.subs, m)
	}

	for ops := 0; pos < len(data) && ops < 64; ops++ {
		op := next()
		if op&3 == 3 {
			r.releaseSub(int(op>>2) % len(r.subs))
			continue
		}
		n := 1
		if op&3 != 0 {
			n = 1 + int(op>>2)%12 // up to 12 events: longer than any ring
		}
		var pub guid.GUID
		if op&3 == 2 {
			if k := int(next()) % 3; k < 2 {
				pub = r.pubs[k]
			}
		}
		batch := make([]event.Event, n)
		for k := range batch {
			c := next()
			r.seq++
			batch[k] = event.New(types[c&1], r.srcs[int(c>>1)%3], r.seq, t0, nil)
		}
		r.publish(int(op&3), pub, batch)
	}

	// Release every loop until the model has nothing left to deliver.
	for i := range r.subs {
		for r.subs[i].parked {
			r.releaseSub(i)
		}
	}
	waitFor(t, func() bool { return r.b.Stats().Delivered == r.delivered })
	var total uint64
	for _, n := range r.drops {
		total += n
	}
	if st := r.b.Stats(); st.Dropped != total {
		t.Fatalf("Stats().Dropped = %d, model %d", st.Dropped, total)
	}
	for _, k := range append(r.srcs[:], r.pubs[:]...) {
		if got := r.b.Drops().For(k); got != r.drops[k] {
			t.Fatalf("Drops().For(%s) = %d, model %d", k.Short(), got, r.drops[k])
		}
	}
	// The ledger names only origins charged something; so must the model.
	got := shares(r.b.Drops())
	maps.DeleteFunc(r.drops, func(_ guid.GUID, n uint64) bool { return n == 0 })
	if !maps.Equal(got, r.drops) {
		t.Fatalf("Drops() = %v, model %v", got, r.drops)
	}
	r.b.Close()
}

// TestRingModelSeeds sweeps seeded random inputs through the ring model.
func TestRingModelSeeds(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 50
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 16+rng.Intn(240))
			rng.Read(data)
			checkRingModel(t, data)
		})
	}
}

// FuzzRingModel runs fuzzer-chosen inputs through the ring model.
func FuzzRingModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkRingModel)
}
