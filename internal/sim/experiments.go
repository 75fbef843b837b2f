package sim

import (
	"fmt"
	"strings"
	"time"
)

// Scale picks an experiment's parameter sweep.
type Scale int

const (
	// Quick is the smallest sweep that still exercises every bar; the
	// package tests run it.
	Quick Scale = iota
	// Default is scibench's sweep.
	Default
	// Big is scibench -big: larger populations, fleets and floods.
	Big
)

// Experiment is one reproduced claim. Running it at a scale measures, returns
// printable tables, and checks the claim's acceptance bars.
type Experiment struct {
	// Name is the scibench -exp name ("e1").
	Name string
	// Claim is the paper section or figure, or the promise of a subsystem,
	// that the experiment reproduces.
	Claim string
	// Run measures at scale s; seed fixes whatever the experiment draws at
	// random. A failed bar is the error, returned together with the tables
	// that show it.
	Run func(s Scale, seed int64) ([]Table, error)
}

// Experiments is the registry, in scibench's run order.
var Experiments = []Experiment{
	{"e1", "§3, Fig 1: overlay routing avoids the hierarchy's root bottleneck at comparable hop counts", runE1},
	{"e2", "Fig 2: one Range's Context Server sustains registration churn and event fan-out", runE2},
	{"e3", "Fig 3: the resolver composes multi-level configurations automatically and serves repeated queries from its cache of whole resolutions", runE3},
	{"e5", "Fig 5: concurrent discovery handshakes complete in bounded time", runE5},
	{"e6", "Fig 6: query encode, decode and validate cost in each of the four modes", runE6},
	{"e7", "§5, Fig 7: CAPA sends Bob's documents to P1 and John's to P4", runE7},
	{"e8", "§3.2: a live configuration repairs itself when its bound provider fails", runE8},
	{"e9", "§2: a query bound to door sightings rebinds to W-LAN sightings when every door vanishes", runE9},
	{"e10", "§3: aggregate query throughput grows with the number of Ranges", runE10},
	{"e12", "flow control: an overloaded receiver's credit throttles the sender's outbound coalescer", runE12},
	{"e13", "flow control: congestion two hops downstream throttles the origin, and credit rides reverse batches", runE13},
	{"e14", "fairness: per-publisher quotas and fair flushing isolate a paced tenant from a hostile one", runE14},
	{"e16", "SCINET: super-peer digest routing keeps interest state and messages per publish sublinear in fleet size", runE16},
}

// Table renders rows with a header.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// String renders an aligned text table.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pick returns the value an experiment uses at scale s.
func pick[T any](s Scale, quick, def, big T) T {
	switch s {
	case Quick:
		return quick
	case Big:
		return big
	}
	return def
}

// bar is one acceptance bar: nil when ok holds, otherwise the failure that
// format and args describe. errors.Join drops the nils.
func bar(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// us renders a duration rounded to the microsecond.
func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

// waitUntil polls cond until it holds. After timeout it gives up with an
// error naming what it waited for, so that no experiment reports figures
// from a partial delivery.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: %s: not reached within %v", what, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
