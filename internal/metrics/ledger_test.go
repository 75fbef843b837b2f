package metrics

import (
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/guid"
)

func sum(shares []Share) uint64 {
	var n uint64
	for _, s := range shares {
		n += s.N
	}
	return n
}

// TestLedgerTop: Top names the topShares largest origins, most first and
// ties in GUID order, and folds the rest and the overflow entry into one
// nil-keyed remainder, last; origins charged nothing are left out.
func TestLedgerTop(t *testing.T) {
	var l Ledger
	if l.Top() != nil || l.Total() != 0 {
		t.Fatal("zero ledger is not empty")
	}
	srcs := make([]guid.GUID, topShares+3)
	for i := range srcs {
		srcs[i] = guid.New(guid.KindDevice)
		l.Add(srcs[i], uint64(i+1))
	}
	l.Add(guid.Nil, 100)
	l.Add(guid.New(guid.KindDevice), 0)
	top := l.Top()
	if len(top) != topShares+1 {
		t.Fatalf("Top has %d shares, want %d named plus the remainder", len(top), topShares)
	}
	for i, s := range top[:topShares] {
		want := srcs[len(srcs)-1-i]
		if s.Src != want || s.N != uint64(len(srcs)-i) {
			t.Fatalf("share %d = %v, want %s: %d", i, s, want.Short(), len(srcs)-i)
		}
	}
	if rest := top[topShares]; !rest.Src.IsNil() || rest.N != 1+2+3+100 {
		t.Fatalf("remainder = %+v, want nil: 106", rest)
	}
	if l.For(srcs[0]) != 1 || l.For(guid.New(guid.KindDevice)) != 0 {
		t.Fatal("For reads the wrong origin")
	}
	if sum(top) != l.Total() {
		t.Fatalf("shares sum to %d, Total %d", sum(top), l.Total())
	}

	var tied Ledger
	a, b := guid.New(guid.KindDevice), guid.New(guid.KindDevice)
	if guid.Less(b, a) {
		a, b = b, a
	}
	tied.Add(b, 5)
	tied.Add(a, 5)
	if got := tied.Top(); len(got) != 2 || got[0].Src != a || got[1].Src != b {
		t.Fatalf("tied shares %v, want GUID order", got)
	}
}

// TestLedgerConcurrent: writers charge fresh origins, past the table's
// bound, while readers call For and Top (run with -race). Once the writers
// are done, the shares sum to Total and Total to what was charged, and an
// origin never charged reads the overflow.
func TestLedgerConcurrent(t *testing.T) {
	const writers, perWriter = 4, guid.TableBound / 2
	var l Ledger
	var charged atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hot := guid.New(guid.KindDevice)
			for i := 0; i < perWriter; i++ {
				n := uint64(i%3 + 1)
				l.Add(guid.New(guid.KindDevice), n)
				l.Add(hot, 1)
				charged.Add(n + 1)
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			probe := guid.New(guid.KindDevice)
			for {
				select {
				case <-done:
					return
				default:
				}
				if len(l.Top()) > topShares+1 {
					t.Error("Top named more than topShares origins")
					return
				}
				// A probe never charged reads 0 until the ledger fills, and
				// then the overflow count, which only grows.
				if n := l.For(probe); n > l.For(guid.Nil) {
					t.Errorf("an origin never charged reads %d, more than the overflow", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got, want := l.Total(), charged.Load(); got != want {
		t.Fatalf("Total = %d, charged %d", got, want)
	}
	if got := sum(l.Top()); got != l.Total() {
		t.Fatalf("shares sum to %d, Total %d", got, l.Total())
	}
	origins := 0
	l.by.Range(func(guid.GUID, *Counter) { origins++ })
	if origins != guid.TableBound+1 {
		t.Fatalf("ledger names %d origins, want the bound %d plus the overflow", origins, guid.TableBound)
	}
	if got, want := l.For(guid.New(guid.KindDevice)), l.For(guid.Nil); got != want || want == 0 {
		t.Fatalf("an origin never charged reads %d in a full ledger, want the overflow %d", got, want)
	}
}

// TestLedgerForPastBound: once the ledger is full, an origin charged past
// its bound reads the shared overflow count its losses went to, so a
// credit ack built from For never claims fewer drops than the origin
// caused; origins charged before the bound keep their own counts.
func TestLedgerForPastBound(t *testing.T) {
	var l Ledger
	first := make([]guid.GUID, guid.TableBound)
	for i := range first {
		first[i] = guid.New(guid.KindDevice)
		l.Add(first[i], 1)
	}
	if n := l.For(guid.New(guid.KindDevice)); n != 0 {
		t.Fatalf("a full ledger with no overflow reads %d for a new origin, want 0", n)
	}
	late := guid.New(guid.KindDevice)
	l.Add(late, 2)
	if got := l.For(late); got != 2 {
		t.Fatalf("For(late) = %d, want its 2 losses, charged to the overflow", got)
	}
	if got := l.For(guid.Nil); got != 2 {
		t.Fatalf("For(Nil) = %d, want 2", got)
	}
	for i, src := range first {
		if got := l.For(src); got != 1 {
			t.Fatalf("origin %d charged before the bound reads %d, want 1", i, got)
		}
	}
	if got := l.For(guid.New(guid.KindDevice)); got != 2 {
		t.Fatalf("an origin never charged reads %d in a full ledger, want the overflow 2", got)
	}
	if l.Total() != guid.TableBound+2 {
		t.Fatalf("Total = %d, want %d", l.Total(), guid.TableBound+2)
	}
}
