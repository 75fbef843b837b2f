package eventbus

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// sourceSet returns n fresh producer GUIDs.
func sourceSet(n int) []guid.GUID {
	out := make([]guid.GUID, n)
	for i := range out {
		out[i] = guid.New(guid.KindDevice)
	}
	return out
}

// TestWithSourcesSelectsProducers: a source-set subscription receives the
// events of its producers, in publish order, through both Publish and
// PublishAll, and nothing from any other producer.
func TestWithSourcesSelectsProducers(t *testing.T) {
	b := New(nil)
	defer b.Close()
	srcs := sourceSet(3)
	other := guid.New(guid.KindDevice)
	_, got := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius}, WithSources(guid.NewSorted(srcs...)))

	var want []uint64
	seq := uint64(0)
	for i := 0; i < 4; i++ {
		for _, src := range append(slices.Clone(srcs), other) {
			seq++
			if err := b.Publish(mkEventFrom(src, seq)); err != nil {
				t.Fatal(err)
			}
			if src != other {
				want = append(want, seq)
			}
		}
	}
	waitFor(t, func() bool { return len(got()) >= len(want) })
	var gotSeq []uint64
	for _, e := range got() {
		gotSeq = append(gotSeq, e.Seq)
	}
	if !slices.Equal(gotSeq, want) {
		t.Fatalf("delivered seqs %v, want %v", gotSeq, want)
	}
}

// TestWithSourcesCopiesAndDeduplicates: guid.NewSorted keeps its own
// sorted, deduplicated copy of the caller's slice, the bus keeps that set as
// it is, and a later write to the caller's slice changes nothing.
func TestWithSourcesCopiesAndDeduplicates(t *testing.T) {
	b := New(nil)
	defer b.Close()
	srcs := sourceSet(3)
	caller := []guid.GUID{srcs[2], srcs[0], srcs[2], srcs[1], srcs[0]}
	set := guid.NewSorted(caller...)
	sub, got := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius}, WithSources(set))

	want := slices.Clone(srcs)
	guid.Sort(want)
	if !slices.Equal(set.Members(), want) {
		t.Fatalf("set = %v, want %v (sorted, deduplicated)", set.Members(), want)
	}
	if !reflect.DeepEqual(sub.Sources(), set) {
		t.Fatalf("Sources() = %v, want the set handed in %v", sub.Sources().Members(), want)
	}
	if sub.matchAll {
		t.Fatal("a source-set subscription must not match every event")
	}

	// Redirect the caller's slice at a stranger: the subscription still
	// takes its original producers and not the stranger.
	stranger := guid.New(guid.KindDevice)
	for i := range caller {
		caller[i] = stranger
	}
	if !slices.Equal(set.Members(), want) {
		t.Fatal("a write to the caller's slice reached the set")
	}
	if err := b.PublishAll([]event.Event{mkEventFrom(stranger, 1), mkEventFrom(srcs[1], 2)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) >= 1 })
	if evs := got(); len(evs) != 1 || evs[0].Source != srcs[1] {
		t.Fatalf("delivered %+v, want only seq 2 from the original set", evs)
	}
}

// TestWithSourcesCopiesAscendingSet: a slice handed to guid.NewSorted
// already strictly ascending is kept in its order, and still copied: a
// later write to the caller's slice, or to a slice Members handed out, does
// not reach the set the subscription holds.
func TestWithSourcesCopiesAscendingSet(t *testing.T) {
	b := New(nil)
	defer b.Close()
	caller := sourceSet(4)
	guid.Sort(caller)
	want := slices.Clone(caller)
	sub, _ := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius}, WithSources(guid.NewSorted(caller...)))
	if !slices.Equal(sub.Sources().Members(), want) {
		t.Fatalf("Sources() = %v, want %v", sub.Sources().Members(), want)
	}
	caller[0] = guid.New(guid.KindDevice)
	sub.Sources().Members()[1] = guid.New(guid.KindDevice)
	if !slices.Equal(sub.Sources().Members(), want) {
		t.Fatal("a write to the caller's slice or to Members reached the subscription's source set")
	}
	for i, g := range want {
		if sub.Sources().At(i) != g || !sub.Sources().Has(g) {
			t.Fatalf("At(%d) = %v, Has = %v; want %v in the set", i, sub.Sources().At(i), sub.Sources().Has(g), g)
		}
	}
	if sub.Sources().Has(caller[0]) {
		t.Fatal("Has reports a GUID that is not in the set")
	}
}

// TestWithSourcesPartialRun: a PublishAll run that mixes bound and unbound
// producers hands the subscription one ring entry holding only the bound
// producers' events, in order; a run of unbound producers only is never
// enqueued.
func TestWithSourcesPartialRun(t *testing.T) {
	b := New(nil)
	defer b.Close()
	srcs := sourceSet(2)
	unbound := guid.New(guid.KindDevice)

	entered := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the parked handler
	var calls atomic.Int64
	var got []event.Event
	sub, err := b.SubscribeBatch(event.Filter{Type: ctxtype.TemperatureCelsius}, func(evs []event.Event) {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
		got = append(got, evs...)
	}, WithSources(guid.NewSorted(srcs...)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mkEventFrom(srcs[0], 0)); err != nil {
		t.Fatal(err)
	}
	<-entered // ring empty, delivery goroutine parked in the handler

	run := []event.Event{
		mkEventFrom(srcs[0], 1),
		mkEventFrom(unbound, 2),
		mkEventFrom(srcs[1], 3),
		mkEventFrom(unbound, 4),
		mkEventFrom(srcs[0], 5),
	}
	if err := b.PublishAll(run); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAll([]event.Event{mkEventFrom(unbound, 6), mkEventFrom(unbound, 7)}); err != nil {
		t.Fatal(err)
	}
	sub.mu.Lock()
	count, events := sub.count, sub.events
	var queued []uint64
	if count == 1 {
		for _, e := range sub.queue[sub.head].run {
			queued = append(queued, e.Seq)
		}
	}
	sub.mu.Unlock()
	if count != 1 || events != 3 || !slices.Equal(queued, []uint64{1, 3, 5}) {
		t.Fatalf("ring holds %d entries, %d events, run %v; want one entry of seqs [1 3 5]", count, events, queued)
	}
	release()
	waitFor(t, func() bool { return b.Stats().Delivered == 4 })
	var seqs []uint64
	for _, e := range got {
		seqs = append(seqs, e.Seq)
	}
	if !slices.Equal(seqs, []uint64{0, 1, 3, 5}) {
		t.Fatalf("delivered seqs %v, want [0 1 3 5]", seqs)
	}
}

// TestWithSourcesRejectsFilterSource: a filter that names a Source cannot
// also carry a source set; the pair is rejected rather than intersected.
func TestWithSourcesRejectsFilterSource(t *testing.T) {
	b := New(nil)
	defer b.Close()
	srcs := sourceSet(2)
	_, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius, Source: srcs[0]}, func(event.Event) {}, WithSources(guid.NewSorted(srcs...)))
	if err == nil {
		t.Fatal("filter Source together with WithSources accepted")
	}
	if n := b.Stats().Subs; n != 0 {
		t.Fatalf("rejected subscription indexed: Subs = %d", n)
	}
	// An empty set is no constraint, so it combines with a filter Source.
	if _, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius, Source: srcs[0]}, func(event.Event) {}, WithSources(guid.Sorted{})); err != nil {
		t.Fatalf("empty source set rejected: %v", err)
	}
}

// TestWithSourcesDropsBlameEachProducer: producers sharing one source-set
// subscription share its queue bound, and each event discarded from it is
// attributed to its own producer.
func TestWithSourcesDropsBlameEachProducer(t *testing.T) {
	b := New(nil)
	defer b.Close()
	srcs := sourceSet(2)
	entered := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64
	if _, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
	}, WithSources(guid.NewSorted(srcs...)), WithQueueLen(4)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mkEventFrom(srcs[0], 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	defer close(gate)
	// Three from each producer into a 4-event ring: freshest wins, so the
	// first producer's two oldest go.
	batch := append(eventsFrom(srcs[0], 3, 1), eventsFrom(srcs[1], 3, 4)...)
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	if d0, d1 := b.Drops().For(srcs[0]), b.Drops().For(srcs[1]); d0 != 2 || d1 != 0 {
		t.Fatalf("drops = %d, %d; want 2, 0", d0, d1)
	}
	if st := b.Stats(); st.Dropped != 2 {
		t.Fatalf("Stats.Dropped = %d, want 2", st.Dropped)
	}
}
