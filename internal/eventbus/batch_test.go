package eventbus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
)

func TestPublishAllDeliversAcrossTypeRuns(t *testing.T) {
	b := New(nil)
	defer b.Close()
	_, gotTemp := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius})
	_, gotPrinter := collect(t, b, event.Filter{Type: ctxtype.PrinterStatus})
	_, gotAll := collect(t, b, event.Filter{})

	batch := []event.Event{
		mkEvent(ctxtype.TemperatureCelsius, 1),
		mkEvent(ctxtype.TemperatureCelsius, 2),
		mkEvent(ctxtype.PrinterStatus, 3),
		mkEvent(ctxtype.PrinterStatus, 4),
		mkEvent(ctxtype.TemperatureCelsius, 5),
	}
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(gotAll()) == 5 })
	waitFor(t, func() bool { return len(gotTemp()) == 3 })
	waitFor(t, func() bool { return len(gotPrinter()) == 2 })

	for i, e := range gotTemp() {
		if want := []uint64{1, 2, 5}[i]; e.Seq != want {
			t.Fatalf("temp order: got seq %d at %d, want %d", e.Seq, i, want)
		}
	}
	for i, e := range gotAll() {
		if want := uint64(i + 1); e.Seq != want {
			t.Fatalf("wildcard order: got seq %d at %d, want %d", e.Seq, i, want)
		}
	}
	st := b.Stats()
	if st.Published != 5 {
		t.Fatalf("published = %d, want 5", st.Published)
	}
	if st.Delivered != 10 {
		t.Fatalf("delivered = %d, want 10", st.Delivered)
	}
}

func TestPublishAllAppliesFieldConstraints(t *testing.T) {
	b := New(nil)
	defer b.Close()
	src := guid.New(guid.KindDevice)
	other := guid.New(guid.KindDevice)
	_, got := collect(t, b, event.Filter{Type: ctxtype.TemperatureCelsius, Source: src})

	batch := []event.Event{
		event.New(ctxtype.TemperatureCelsius, src, 1, t0, nil),
		event.New(ctxtype.TemperatureCelsius, other, 2, t0, nil),
		event.New(ctxtype.TemperatureCelsius, src, 3, t0, nil),
	}
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 2 })
	if es := got(); es[0].Seq != 1 || es[1].Seq != 3 {
		t.Fatalf("wrong events delivered: %v", es)
	}
}

func TestSubscribeBatchDrainsBacklogAsOneSlice(t *testing.T) {
	b := New(nil)
	defer b.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var sizes []int
	var total int
	first := true
	_, err := b.SubscribeBatch(event.Filter{Type: ctxtype.TemperatureCelsius}, func(events []event.Event) {
		if first {
			first = false
			entered <- struct{}{}
			<-release
		}
		mu.Lock()
		sizes = append(sizes, len(events))
		total += len(events)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Park the delivery goroutine inside the first invocation, then queue a
	// backlog: it must arrive as one slice on the next wakeup.
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 1; i <= 5; i++ {
		if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 6
	})
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 5 {
		t.Fatalf("batch sizes = %v, want [1 5]", sizes)
	}
}

func TestPublishAllOneShotDeliversExactlyOne(t *testing.T) {
	b := New(nil)
	defer b.Close()
	var n atomic.Int64
	sub, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
		n.Add(1)
	}, OneShot())
	if err != nil {
		t.Fatal(err)
	}
	batch := []event.Event{
		mkEvent(ctxtype.TemperatureCelsius, 1),
		mkEvent(ctxtype.TemperatureCelsius, 2),
		mkEvent(ctxtype.TemperatureCelsius, 3),
	}
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sub.isClosed() })
	waitFor(t, func() bool { return b.Stats().Subs == 0 })
	if got := n.Load(); got != 1 {
		t.Fatalf("one-shot delivered %d events, want 1", got)
	}
}

func TestPublishAllValidatesWholeBatchUpFront(t *testing.T) {
	b := New(nil)
	defer b.Close()
	_, got := collect(t, b, event.Filter{})
	batch := []event.Event{
		mkEvent(ctxtype.TemperatureCelsius, 1),
		{}, // invalid: nil id/source
	}
	if err := b.PublishAll(batch); err == nil {
		t.Fatal("want validation error")
	}
	if st := b.Stats(); st.Published != 0 {
		t.Fatalf("published = %d after failed batch, want 0", st.Published)
	}
	if len(got()) != 0 {
		t.Fatal("events delivered from rejected batch")
	}
}

func TestPublishAllOnClosedBus(t *testing.T) {
	b := New(nil)
	b.Close()
	err := b.PublishAll([]event.Event{mkEvent(ctxtype.TemperatureCelsius, 1)})
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if b.PublishAll(nil) != nil {
		t.Fatal("empty batch must be a no-op even on a closed bus")
	}
}

func TestPublishAllDropAccounting(t *testing.T) {
	b := New(nil)
	defer b.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var delivered atomic.Int64
	_, err := b.Subscribe(event.Filter{Type: ctxtype.TemperatureCelsius}, func(event.Event) {
		if delivered.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
	}, WithQueueLen(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(mkEvent(ctxtype.TemperatureCelsius, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered // queue is now empty, delivery goroutine parked in the handler

	batch := make([]event.Event, 5)
	for i := range batch {
		batch[i] = mkEvent(ctxtype.TemperatureCelsius, uint64(i+1))
	}
	if err := b.PublishAll(batch); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (batch of 5 into queue of 2)", st.Dropped)
	}
	close(release)
	// DropOldest: the survivors are the last two of the batch.
	waitFor(t, func() bool { return delivered.Load() == 3 })
}

// TestConcurrentPublishAllAndChurn races batched publishes against
// subscription churn and equivalence-generation changes; run with -race.
func TestConcurrentPublishAllAndChurn(t *testing.T) {
	defer leak.Check(t)()
	reg := ctxtype.NewRegistry()
	b := New(reg, WithShards(4))
	defer b.Close()

	const (
		publishers = 4
		churners   = 4
		rounds     = 200
	)
	types := make([]ctxtype.Type, 8)
	for i := range types {
		types[i] = ctxtype.Type(fmt.Sprintf("churn.batch%d", i))
	}
	stop := make(chan struct{})
	var pubWG, churnWG sync.WaitGroup

	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			src := guid.New(guid.KindDevice)
			batch := make([]event.Event, 0, 16)
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				batch = batch[:0]
				for k := 0; k < 16; k++ {
					batch = append(batch, event.New(types[(r+k/4)%len(types)], src, uint64(r), t0, nil))
				}
				if err := b.PublishAll(batch); err != nil && err != ErrClosed {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			for r := 0; r < rounds; r++ {
				f := event.Filter{Type: types[(c+r)%len(types)]}
				if r%5 == 0 {
					f = event.Filter{} // keep the residual tier busy too
				}
				sub, err := b.Subscribe(f, func(event.Event) {}, WithQueueLen(8))
				if err != nil {
					t.Error(err)
					return
				}
				sub.Cancel()
			}
		}(c)
	}

	churnWG.Wait() // churners are bounded; publishers run until stopped
	close(stop)
	pubWG.Wait()
	if n := b.Stats().Subs; n != 0 {
		t.Fatalf("%d cancelled subscriptions left in the index", n)
	}
}
