package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/metrics"
	"sci/internal/overlay"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// This file implements the experiment index of DESIGN.md §4. Each RunEx
// function is deterministic given its seed, returns printable rows, and is
// wrapped by cmd/scibench and the root benchmarks.

// Table renders rows with a header.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
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

// E1Row is one population size of the overlay-vs-hierarchy comparison.
type E1Row struct {
	N int
	// Overlay: hop quantiles and relay-load concentration.
	OverlayHopsP50, OverlayHopsP99 int64
	OverlayMaxRelay                uint64
	OverlayRelayRatio              float64 // max relay / mean relay
	// Tree baseline.
	TreeHopsP50, TreeHopsP99 int64
	TreeMaxRelay             uint64
	TreeRelayRatio           float64
}

// seededGUID draws a GUID from rng, so that an experiment's seed fixes its
// node identifiers — and with them the topology — as well as its probes.
func seededGUID(rng *rand.Rand, kind guid.Kind) guid.GUID {
	var g guid.GUID
	rng.Read(g[:]) // documented to never fail
	g[0] = byte(kind)
	return g
}

// RunE1 reproduces the paper's Section 3 claim: overlay routing avoids the
// hierarchy's root bottleneck at comparable hop counts. For each n it
// builds both networks over a zero-latency memory transport, sends `probes`
// uniform random pairwise messages through each, and reports hop quantiles
// and relay-load concentration (max/mean across nodes).
func RunE1(sizes []int, probes int, seed int64) ([]E1Row, error) {
	var rows []E1Row
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed))

		// --- structured overlay ---
		onet := transport.NewMemory(transport.MemoryConfig{Seed: seed})
		var nodes []*overlay.Node
		var mu sync.Mutex
		delivered := 0
		var hops metrics.Histogram
		for i := 0; i < n; i++ {
			node, err := overlay.NewNode(overlay.Config{
				ID:      seededGUID(rng, guid.KindServer),
				Network: onet,
				Deliver: func(d overlay.Delivery) {
					mu.Lock()
					delivered++
					mu.Unlock()
					hops.Record(int64(d.Hops))
				},
			})
			if err != nil {
				return nil, err
			}
			if i > 0 {
				if err := node.Join(nodes[rng.Intn(len(nodes))].ID()); err != nil {
					return nil, err
				}
			}
			nodes = append(nodes, node)
		}
		for i := 0; i < probes; i++ {
			src := nodes[rng.Intn(n)]
			dst := nodes[rng.Intn(n)]
			if err := src.Route(dst.ID(), "e1", nil); err != nil {
				return nil, err
			}
		}
		waitUntil(func() bool {
			mu.Lock()
			defer mu.Unlock()
			return delivered >= probes
		})
		var oMax, oSum uint64
		for _, node := range nodes {
			rl := node.Relayed()
			oSum += rl
			if rl > oMax {
				oMax = rl
			}
		}
		oMean := float64(oSum) / float64(n)
		row := E1Row{
			N:               n,
			OverlayHopsP50:  hops.Quantile(0.5),
			OverlayHopsP99:  hops.Quantile(0.99),
			OverlayMaxRelay: oMax,
		}
		if oMean > 0 {
			row.OverlayRelayRatio = float64(oMax) / oMean
		}
		for _, node := range nodes {
			_ = node.Close()
		}
		_ = onet.Close()

		// --- hierarchical baseline ---
		tnet := transport.NewMemory(transport.MemoryConfig{Seed: seed})
		ids := make([]guid.GUID, n)
		for i := range ids {
			ids[i] = seededGUID(rng, guid.KindServer)
		}
		var tmu sync.Mutex
		tDelivered := 0
		var tHops metrics.Histogram
		tree, err := overlay.BuildTree(tnet, ids, 4, func(_ guid.GUID, d overlay.Delivery) {
			tmu.Lock()
			tDelivered++
			tmu.Unlock()
			tHops.Record(int64(d.Hops))
		})
		if err != nil {
			return nil, err
		}
		probeRng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < probes; i++ {
			src := ids[probeRng.Intn(n)]
			dst := ids[probeRng.Intn(n)]
			if err := tree.Nodes[src].Route(dst, "e1", nil); err != nil {
				return nil, err
			}
		}
		waitUntil(func() bool {
			tmu.Lock()
			defer tmu.Unlock()
			return tDelivered >= probes
		})
		var tMax, tSum uint64
		for _, node := range tree.Nodes {
			rl := node.Relayed()
			tSum += rl
			if rl > tMax {
				tMax = rl
			}
		}
		tMean := float64(tSum) / float64(n)
		row.TreeHopsP50 = tHops.Quantile(0.5)
		row.TreeHopsP99 = tHops.Quantile(0.99)
		row.TreeMaxRelay = tMax
		if tMean > 0 {
			row.TreeRelayRatio = float64(tMax) / tMean
		}
		_ = tree.Close()
		_ = tnet.Close()

		rows = append(rows, row)
	}
	return rows, nil
}

// E1Table formats RunE1 output.
func E1Table(rows []E1Row) Table {
	t := Table{
		Title: "E1 (Fig 1): overlay vs hierarchical routing — hops and relay-load concentration",
		Header: []string{"n", "ovl p50", "ovl p99", "ovl maxRelay", "ovl max/mean",
			"tree p50", "tree p99", "tree maxRelay", "tree max/mean"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.OverlayHopsP50), fmt.Sprintf("%d", r.OverlayHopsP99),
			fmt.Sprintf("%d", r.OverlayMaxRelay), fmt.Sprintf("%.1f", r.OverlayRelayRatio),
			fmt.Sprintf("%d", r.TreeHopsP50), fmt.Sprintf("%d", r.TreeHopsP99),
			fmt.Sprintf("%d", r.TreeMaxRelay), fmt.Sprintf("%.1f", r.TreeRelayRatio),
		})
	}
	return t
}

// E2Row reports Range churn/fan-out throughput for one population size.
type E2Row struct {
	Entities       int
	RegisterPerSec float64
	EventsPerSec   float64
}

// RunE2 (Fig 2): a single Range sustains registration churn and event
// fan-out through its central Context Server.
func RunE2(sizes []int) ([]E2Row, error) {
	var rows []E2Row
	for _, n := range sizes {
		rng := server.New(server.Config{Name: "e2"})
		clk := clock.Real()

		start := time.Now()
		sensors := make([]*sensor.DoorSensor, 0, n)
		for i := 0; i < n; i++ {
			ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, clk)
			if err := rng.AddEntity(ds); err != nil {
				return nil, err
			}
			sensors = append(sensors, ds)
		}
		regRate := float64(n) / time.Since(start).Seconds()

		// Fan-out: one CAA subscribed to all sightings; every sensor fires.
		caa := entity.NewCAA("e2-app", nil, clk)
		if err := rng.AddApplication(caa); err != nil {
			return nil, err
		}
		q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeSubscribe)
		// Subscribing binds one sensor; for fan-out measure publish directly.
		_ = q
		const perSensor = 10
		badge := guid.New(guid.KindPerson)
		start = time.Now()
		for i := 0; i < perSensor; i++ {
			for _, ds := range sensors {
				if err := ds.Sight(badge, "x"); err != nil {
					return nil, err
				}
			}
		}
		evRate := float64(n*perSensor) / time.Since(start).Seconds()
		rng.Close()
		rows = append(rows, E2Row{Entities: n, RegisterPerSec: regRate, EventsPerSec: evRate})
	}
	return rows, nil
}

// E2Table formats RunE2 output.
func E2Table(rows []E2Row) Table {
	t := Table{
		Title:  "E2 (Fig 2): Range churn and event throughput through one Context Server",
		Header: []string{"entities", "register/s", "events/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Entities),
			fmt.Sprintf("%.0f", r.RegisterPerSec),
			fmt.Sprintf("%.0f", r.EventsPerSec),
		})
	}
	return t
}

// E3Row reports composition resolution for one CE population.
type E3Row struct {
	Population  int
	Depth       int
	ResolveTime time.Duration
	GraphNodes  int
	ReuseHits   uint64
}

// RunE3 (Fig 3): the resolver composes multi-level configurations
// automatically; resolution cost scales with population and chain depth,
// and repeated queries reuse cached sub-graphs.
func RunE3(populations []int, depth int) ([]E3Row, error) {
	for depth < 2 {
		depth = 2
	}
	var rows []E3Row
	for _, pop := range populations {
		profiles := &profile.Manager{}
		types := ctxtype.NewRegistry()
		// Type chain t.l0 ← t.l1 ← ... ← t.l(depth-1); sources output t.l0.
		for l := 0; l < depth; l++ {
			if err := types.Register(ctxtype.Type(fmt.Sprintf("t.l%d", l))); err != nil {
				return nil, err
			}
		}
		// Population: sources at level 0, operators above, round robin.
		for i := 0; i < pop; i++ {
			l := i % depth
			p := profile.Profile{
				Entity:  guid.New(guid.KindEntity),
				Name:    fmt.Sprintf("ce-%d", i),
				Outputs: []ctxtype.Type{ctxtype.Type(fmt.Sprintf("t.l%d", l))},
			}
			if l > 0 {
				p.Inputs = []ctxtype.Type{ctxtype.Type(fmt.Sprintf("t.l%d", l-1))}
			}
			if err := profiles.Put(p); err != nil {
				return nil, err
			}
		}
		res := resolver.New(profiles, types, nil)
		q := query.New(guid.New(guid.KindApplication),
			query.What{Pattern: ctxtype.Type(fmt.Sprintf("t.l%d", depth-1))}, query.ModeSubscribe)

		start := time.Now()
		cfg, err := res.Resolve(q, resolver.Context{})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		// Re-resolve to exercise the cache.
		for i := 0; i < 10; i++ {
			if _, err := res.Resolve(q, resolver.Context{}); err != nil {
				return nil, err
			}
		}
		hits, _ := res.CacheStats()
		rows = append(rows, E3Row{
			Population:  pop,
			Depth:       cfg.Depth(),
			ResolveTime: elapsed,
			GraphNodes:  len(cfg.Providers()),
			ReuseHits:   hits,
		})
	}
	return rows, nil
}

// E3Table formats RunE3 output.
func E3Table(rows []E3Row) Table {
	t := Table{
		Title:  "E3 (Fig 3): automatic composition — resolution time, graph size, cache reuse",
		Header: []string{"population", "depth", "resolve", "providers", "reuse hits"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Population),
			fmt.Sprintf("%d", r.Depth),
			r.ResolveTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.GraphNodes),
			fmt.Sprintf("%d", r.ReuseHits),
		})
	}
	return t
}

// E5Row reports discovery latency for one arrival burst size.
type E5Row struct {
	Burst int
	P50   time.Duration
	P99   time.Duration
}

// RunE5 (Fig 5): concurrent discovery handshakes complete in bounded time.
// Measured in-process: AddEntity performs the same register→store→attach
// sequence the wire protocol drives.
func RunE5(bursts []int) ([]E5Row, error) {
	var rows []E5Row
	for _, burst := range bursts {
		rng := server.New(server.Config{Name: "e5"})
		var lat metrics.Histogram
		var wg sync.WaitGroup
		errs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, nil)
				start := time.Now()
				if err := rng.AddEntity(ds); err != nil {
					errs <- err
					return
				}
				lat.RecordDuration(time.Since(start))
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, E5Row{
			Burst: burst,
			P50:   time.Duration(lat.Quantile(0.5)),
			P99:   time.Duration(lat.Quantile(0.99)),
		})
		rng.Close()
	}
	return rows, nil
}

// E5Table formats RunE5 output.
func E5Table(rows []E5Row) Table {
	t := Table{
		Title:  "E5 (Fig 5): discovery/registration latency under arrival bursts",
		Header: []string{"burst", "p50", "p99"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Burst),
			r.P50.Round(time.Microsecond).String(),
			r.P99.Round(time.Microsecond).String(),
		})
	}
	return t
}

// E7Result reports the CAPA end-to-end scenario outcome.
type E7Result struct {
	BobPrinter  string
	JohnPrinter string
	BobCorrect  bool
	JohnCorrect bool
	BobLatency  time.Duration
	JohnLatency time.Duration
}

// RunE7 (Fig 7 / Section 5): the full CAPA scenario. Correctness: Bob's
// documents go to P1 (closest idle printer to his office); John's go to P4
// (P1 busy, P2 out of paper, P3 behind a locked door).
func RunE7() (*E7Result, error) {
	cw, err := NewCAPAWorld()
	if err != nil {
		return nil, err
	}
	defer cw.Close()
	bob, err := cw.RunBob([]string{"slides.pdf", "paper.pdf"})
	if err != nil {
		return nil, err
	}
	john, err := cw.RunJohn("lecture-notes.pdf")
	if err != nil {
		return nil, err
	}
	return &E7Result{
		BobPrinter:  bob.Printer,
		JohnPrinter: john.Printer,
		BobCorrect:  bob.Printer == "P1",
		JohnCorrect: john.Printer == "P4",
		BobLatency:  bob.Elapsed,
		JohnLatency: john.Elapsed,
	}, nil
}

// E7Table formats RunE7 output.
func E7Table(r *E7Result) Table {
	return Table{
		Title:  "E7 (Fig 7 / §5): CAPA printer selection",
		Header: []string{"actor", "selected", "expected", "correct", "latency"},
		Rows: [][]string{
			{"bob", r.BobPrinter, "P1", fmt.Sprintf("%v", r.BobCorrect), r.BobLatency.Round(time.Microsecond).String()},
			{"john", r.JohnPrinter, "P4", fmt.Sprintf("%v", r.JohnCorrect), r.JohnLatency.Round(time.Microsecond).String()},
		},
	}
}

// E8Row reports repair behaviour for one provider population.
type E8Row struct {
	Providers    int
	Repaired     bool
	RepairTime   time.Duration
	EventGapSeqs uint64 // sequence gap observed by the consumer
}

// RunE8 (§3.2 adaptivity): kill the bound provider of a live configuration
// and measure repair latency; context keeps flowing from an equivalent
// provider.
func RunE8(providerCounts []int) ([]E8Row, error) {
	var rows []E8Row
	for _, n := range providerCounts {
		clk := clock.NewManual(epoch)
		rng := server.New(server.Config{Name: "e8", Clock: clk, AutoRenewEvery: 5 * time.Second})

		doors := make([]*sensor.DoorSensor, 0, n)
		for i := 0; i < n; i++ {
			ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, clk)
			if err := rng.AddEntity(ds); err != nil {
				return nil, err
			}
			doors = append(doors, ds)
		}
		obj := entity.NewObjLocationCE(nil, clk)
		if err := rng.AddEntity(obj); err != nil {
			return nil, err
		}
		var mu sync.Mutex
		var seqs []uint64
		caa := entity.NewCAA("e8-app", func(e event.Event) {
			mu.Lock()
			seqs = append(seqs, e.Seq)
			mu.Unlock()
		}, clk)
		if err := rng.AddApplication(caa); err != nil {
			return nil, err
		}
		q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
		if _, err := rng.Submit(q); err != nil {
			return nil, err
		}
		sts := rng.Runtime().Active()
		if len(sts) != 1 {
			return nil, fmt.Errorf("sim: e8 expected 1 active configuration")
		}
		// Identify the bound door.
		var bound *sensor.DoorSensor
		for _, ds := range doors {
			for _, p := range sts[0].Providers {
				if ds.ID() == p {
					bound = ds
				}
			}
		}
		if bound == nil {
			return nil, fmt.Errorf("sim: e8 no door bound")
		}
		badge := guid.New(guid.KindPerson)
		_ = bound.Sight(badge, "x")

		// Kill it (clean departure) and time the repair.
		start := time.Now()
		if err := rng.RemoveEntity(bound.ID()); err != nil {
			return nil, err
		}
		repaired := len(rng.Runtime().Active()) == 1
		elapsed := time.Since(start)

		// Fire the replacement door; consumer sees events again.
		if repaired {
			sts = rng.Runtime().Active()
			for _, ds := range doors {
				for _, p := range sts[0].Providers {
					if ds.ID() == p {
						_ = ds.Sight(badge, "y")
					}
				}
			}
		}
		rows = append(rows, E8Row{
			Providers:  n,
			Repaired:   repaired,
			RepairTime: elapsed,
		})
		rng.Close()
	}
	return rows, nil
}

// E8Table formats RunE8 output.
func E8Table(rows []E8Row) Table {
	t := Table{
		Title:  "E8 (§3.2/§6 adaptivity): configuration repair on provider failure",
		Header: []string{"providers", "repaired", "repair time"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Providers),
			fmt.Sprintf("%v", r.Repaired),
			r.RepairTime.Round(time.Microsecond).String(),
		})
	}
	return t
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
