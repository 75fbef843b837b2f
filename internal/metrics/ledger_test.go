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
// are done, the shares sum to Total and Total to what was charged.
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
				if l.For(probe) != 0 {
					t.Error("an origin never charged reads nonzero")
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
}
