package metrics

import (
	"cmp"
	"slices"

	"sci/internal/guid"
)

// topShares is how many origins Ledger.Top names; the rest of a ledger is
// summed into one remainder share.
const topShares = 8

// Ledger is one family of per-origin losses — events a Range dropped,
// refused or shed — charged to the publisher, endpoint or tenant they
// belong to: a total and one counter per origin, bounded at
// guid.TableBound origins (later ones are charged together to guid.Nil).
// Add is lock-free and allocation-free once an origin has its counter, so
// it is safe on the dispatch path and under a caller's lock. The zero
// value is an empty ledger ready to use.
type Ledger struct {
	total Counter
	by    guid.Table[Counter]
}

// Add charges n losses to src.
func (l *Ledger) Add(src guid.GUID, n uint64) {
	l.total.Add(n)
	l.by.Get(src).Add(n)
}

// Total returns every loss charged, whoever to.
func (l *Ledger) Total() uint64 { return l.total.Value() }

// For returns the losses charged to src. An origin never charged reads 0,
// and so does one first charged past the bound: its losses are guid.Nil's.
func (l *Ledger) For(src guid.GUID) uint64 {
	if c := l.by.Lookup(src); c != nil {
		return c.Value()
	}
	return 0
}

// Share is one origin's part of a ledger; a nil Src is the remainder.
type Share struct {
	Src guid.GUID
	N   uint64
}

// Top reduces the ledger to at most topShares origins by descending count
// (ties in GUID order), then, last and nil-keyed, the remainder: every
// other origin plus the overflow charged to guid.Nil. Origins charged
// nothing are left out. It is the bound every per-origin gauge family
// shares, and at quiescence its counts sum to Total.
func (l *Ledger) Top() []Share {
	var shares []Share
	var other uint64
	l.by.Range(func(src guid.GUID, c *Counter) {
		switch n := c.Value(); {
		case n == 0:
		case src.IsNil():
			other += n
		default:
			shares = append(shares, Share{Src: src, N: n})
		}
	})
	slices.SortFunc(shares, func(a, b Share) int {
		if c := cmp.Compare(b.N, a.N); c != 0 {
			return c
		}
		return guid.Compare(a.Src, b.Src)
	})
	if len(shares) > topShares {
		for _, s := range shares[topShares:] {
			other += s.N
		}
		shares = shares[:topShares]
	}
	if other > 0 {
		shares = append(shares, Share{N: other})
	}
	return shares
}
