package sim

// The paper's own claims (§2, §3, §5 and Figs 1–7), one function each.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
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

// seededGUID draws a GUID from rng, so that an experiment's seed fixes its
// node identifiers — and with them the topology — as well as its probes.
func seededGUID(rng *rand.Rand, kind guid.Kind) guid.GUID {
	var g guid.GUID
	rng.Read(g[:]) // documented to never fail
	g[0] = byte(kind)
	return g
}

// e1Router is what e1 needs of an overlay node and a tree node alike.
type e1Router interface {
	ID() guid.GUID
	Route(target guid.GUID, appKind string, payload []byte) error
	Relayed() uint64
	Close() error
}

// e1Load is one network's hop quantiles and relay-load concentration.
type e1Load struct {
	p50, p99 int64
	maxRelay uint64
	ratio    float64 // max relay / mean relay
}

// runE1 builds the structured overlay and the hierarchical baseline over a
// zero-latency memory transport for each population, routes uniform random
// pairwise probes through each, and compares hop quantiles and relay-load
// concentration (max/mean across nodes). Bars: the overlay spreads relay
// load more evenly than the tree, within 12 hops at p99.
func runE1(s Scale, seed int64) ([]Table, error) {
	probes := pick(s, 400, 1000, 1000)
	t := Table{
		Title: "overlay vs hierarchical routing: hops and relay-load concentration",
		Header: []string{"n", "ovl p50", "ovl p99", "ovl maxRelay", "ovl max/mean",
			"tree p50", "tree p99", "tree maxRelay", "tree max/mean"},
	}
	var errs []error
	for _, n := range pick(s, []int{32}, []int{16, 64, 128}, []int{16, 64, 256, 1024}) {
		rng := rand.New(rand.NewSource(seed))
		ovl, err := e1Overlay(n, probes, seed, rng)
		if err != nil {
			return nil, err
		}
		tree, err := e1Tree(n, probes, seed, rng)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n),
			fmt.Sprint(ovl.p50), fmt.Sprint(ovl.p99), fmt.Sprint(ovl.maxRelay), fmt.Sprintf("%.1f", ovl.ratio),
			fmt.Sprint(tree.p50), fmt.Sprint(tree.p99), fmt.Sprint(tree.maxRelay), fmt.Sprintf("%.1f", tree.ratio)})
		errs = append(errs,
			bar(ovl.ratio < tree.ratio, "e1: n=%d overlay max/mean %.2f not below tree %.2f", n, ovl.ratio, tree.ratio),
			bar(ovl.p99 <= 12, "e1: n=%d overlay p99 hops = %d, want ≤ 12", n, ovl.p99))
	}
	return []Table{t}, errors.Join(errs...)
}

// e1Overlay joins n overlay nodes, each to a random earlier one, and probes
// them.
func e1Overlay(n, probes int, seed int64, rng *rand.Rand) (e1Load, error) {
	net := transport.NewMemory(transport.MemoryConfig{Seed: seed})
	defer net.Close()
	var hops metrics.Histogram
	var delivered atomic.Int64
	var nodes []e1Router
	defer func() {
		for _, node := range nodes {
			_ = node.Close()
		}
	}()
	for i := 0; i < n; i++ {
		node, err := overlay.NewNode(overlay.Config{
			ID:      seededGUID(rng, guid.KindServer),
			Network: net,
			Deliver: func(d overlay.Delivery) {
				hops.Record(int64(d.Hops))
				delivered.Add(1)
			},
		})
		if err != nil {
			return e1Load{}, err
		}
		if i > 0 {
			err = node.Join(nodes[rng.Intn(len(nodes))].ID())
		}
		nodes = append(nodes, node)
		if err != nil {
			return e1Load{}, err
		}
	}
	return e1Probe(nodes, probes, rng, &hops, &delivered)
}

// e1Tree builds the branching-4 tree over n fresh ids and probes it with
// its own probe stream.
func e1Tree(n, probes int, seed int64, rng *rand.Rand) (e1Load, error) {
	net := transport.NewMemory(transport.MemoryConfig{Seed: seed})
	defer net.Close()
	ids := make([]guid.GUID, n)
	for i := range ids {
		ids[i] = seededGUID(rng, guid.KindServer)
	}
	var hops metrics.Histogram
	var delivered atomic.Int64
	tree, err := overlay.BuildTree(net, ids, 4, func(_ guid.GUID, d overlay.Delivery) {
		hops.Record(int64(d.Hops))
		delivered.Add(1)
	})
	if err != nil {
		return e1Load{}, err
	}
	defer tree.Close()
	nodes := make([]e1Router, n)
	for i, id := range ids {
		nodes[i] = tree.Nodes[id]
	}
	return e1Probe(nodes, probes, rand.New(rand.NewSource(seed+1)), &hops, &delivered)
}

// e1Probe routes probes messages between node pairs drawn from rng, waits
// for every delivery, and measures the network.
func e1Probe(nodes []e1Router, probes int, rng *rand.Rand, hops *metrics.Histogram, delivered *atomic.Int64) (e1Load, error) {
	for i := 0; i < probes; i++ {
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if err := src.Route(dst.ID(), "e1", nil); err != nil {
			return e1Load{}, err
		}
	}
	if err := waitUntil(30*time.Second, fmt.Sprintf("e1: %d probes delivered", probes),
		func() bool { return delivered.Load() >= int64(probes) }); err != nil {
		return e1Load{}, err
	}
	l := e1Load{p50: hops.Quantile(0.5), p99: hops.Quantile(0.99)}
	var sum uint64
	for _, node := range nodes {
		rl := node.Relayed()
		sum += rl
		l.maxRelay = max(l.maxRelay, rl)
	}
	if sum > 0 {
		l.ratio = float64(l.maxRelay) / (float64(sum) / float64(len(nodes)))
	}
	return l, nil
}

// runE2 registers n door sensors with one Range, then fires ten sightings
// from each, and reports both rates.
func runE2(s Scale, _ int64) ([]Table, error) {
	t := Table{
		Title:  "Range churn and event throughput through one Context Server",
		Header: []string{"entities", "register/s", "events/s"},
	}
	for _, n := range pick(s, []int{50}, []int{10, 100, 1000}, []int{10, 100, 1000, 5000}) {
		register, events, err := e2Rates(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.0f", register), fmt.Sprintf("%.0f", events)})
	}
	return []Table{t}, nil
}

func e2Rates(n int) (register, events float64, err error) {
	rng := server.New(server.Config{Name: "e2"})
	defer rng.Close()
	start := time.Now()
	sensors := make([]*sensor.DoorSensor, 0, n)
	for i := 0; i < n; i++ {
		ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, clock.Real())
		if err := rng.AddEntity(ds); err != nil {
			return 0, 0, err
		}
		sensors = append(sensors, ds)
	}
	register = float64(n) / time.Since(start).Seconds()

	const perSensor = 10
	badge := guid.New(guid.KindPerson)
	start = time.Now()
	for i := 0; i < perSensor; i++ {
		for _, ds := range sensors {
			if err := ds.Sight(badge, "x"); err != nil {
				return 0, 0, err
			}
		}
	}
	return register, float64(n*perSensor) / time.Since(start).Seconds(), nil
}

// runE3 resolves a subscription to the top of a five-level type chain over
// a round-robin population of sources and operators, times the first
// resolution, and repeats it ten times to exercise the resolution cache.
// Bars: the configuration spans the whole chain, and repeats hit the cache.
func runE3(s Scale, _ int64) ([]Table, error) {
	const depth = 5
	t := Table{
		Title:  "automatic composition: resolution time, graph size, cache reuse",
		Header: []string{"population", "depth", "resolve", "providers", "reuse hits"},
	}
	var errs []error
	for _, pop := range pick(s, []int{60}, []int{10, 100, 1000}, []int{10, 100, 1000, 10000}) {
		profiles := &profile.Manager{}
		types := ctxtype.NewRegistry()
		// Type chain t.l0 ← t.l1 ← ... ← t.l(depth-1); sources output t.l0.
		for l := 0; l < depth; l++ {
			if err := types.Register(ctxtype.Type(fmt.Sprintf("t.l%d", l))); err != nil {
				return nil, err
			}
		}
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
		for i := 0; i < 10; i++ {
			if _, err := res.Resolve(q, resolver.Context{}); err != nil {
				return nil, err
			}
		}
		hits, _ := res.CacheStats()
		t.Rows = append(t.Rows, []string{fmt.Sprint(pop), fmt.Sprint(cfg.Depth()), us(elapsed),
			fmt.Sprint(len(cfg.Providers())), fmt.Sprint(hits)})
		errs = append(errs,
			bar(cfg.Depth() == depth, "e3: population %d resolved depth %d, want %d", pop, cfg.Depth(), depth),
			bar(hits > 0, "e3: population %d: repeat resolutions never hit the cache", pop))
	}
	return []Table{t}, errors.Join(errs...)
}

// runE5 registers a burst of door sensors concurrently and reports the
// registration latency quantiles. AddEntity performs the same
// register→store→attach sequence the wire protocol drives.
func runE5(s Scale, _ int64) ([]Table, error) {
	t := Table{
		Title:  "discovery/registration latency under arrival bursts",
		Header: []string{"burst", "p50", "p99"},
	}
	for _, burst := range pick(s, []int{32}, []int{1, 50, 200}, []int{1, 50, 200, 500}) {
		lat, err := e5Burst(burst)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(burst),
			us(time.Duration(lat.Quantile(0.5))), us(time.Duration(lat.Quantile(0.99)))})
	}
	return []Table{t}, nil
}

func e5Burst(burst int) (*metrics.Histogram, error) {
	rng := server.New(server.Config{Name: "e5"})
	defer rng.Close()
	lat := &metrics.Histogram{}
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, nil)
			start := time.Now()
			errs[i] = rng.AddEntity(ds)
			lat.RecordDuration(time.Since(start))
		}(i)
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

// runE6 times query encode plus decode (which validates) in each mode.
func runE6(s Scale, _ int64) ([]Table, error) {
	iters := pick(s, 200, 2000, 2000)
	owner := guid.New(guid.KindApplication)
	t := Table{
		Title:  "query XML encode+decode round trip per mode",
		Header: []string{"mode", "xml bytes", "round trip"},
	}
	for _, mode := range []query.Mode{query.ModeProfile, query.ModeSubscribe, query.ModeOnce, query.ModeAdvertisement} {
		var q query.Query
		switch mode {
		case query.ModeProfile:
			q = query.New(owner, query.What{EntityType: "printer"}, mode)
		case query.ModeAdvertisement:
			q = query.New(owner, query.What{EntityType: "printer"}, mode)
			q.Which = query.Which{Criterion: query.CriterionClosest,
				Constraints: map[string]string{"status": "idle"}}
		default:
			q = query.New(owner, query.What{Pattern: ctxtype.PrinterStatus}, mode)
			q.Where.Explicit = location.AtPath("campus/tower/f0")
		}
		data, err := q.Encode()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			d, err := q.Encode()
			if err != nil {
				return nil, err
			}
			if _, err := query.Decode(d); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(iters)
		t.Rows = append(t.Rows, []string{string(mode), fmt.Sprint(len(data)), per.Round(100 * time.Nanosecond).String()})
	}
	return []Table{t}, nil
}

// runE7 plays the CAPA scenario. Bars: Bob's documents go to P1, the
// closest idle printer to his office; John's go to P4 (P1 busy, P2 out of
// paper, P3 behind a locked door).
func runE7(Scale, int64) ([]Table, error) {
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
	t := Table{
		Title:  "CAPA printer selection",
		Header: []string{"actor", "selected", "expected", "latency"},
		Rows: [][]string{
			{"bob", bob.Printer, "P1", us(bob.Elapsed)},
			{"john", john.Printer, "P4", us(john.Elapsed)},
		},
	}
	return []Table{t}, errors.Join(
		bar(bob.Printer == "P1", "e7: Bob printed to %s, want P1", bob.Printer),
		bar(john.Printer == "P4", "e7: John printed to %s, want P4", john.Printer))
}

// runE8 removes the bound door of a live location subscription and times
// the repair onto one of the spare doors. Bar: every configuration repairs.
func runE8(s Scale, _ int64) ([]Table, error) {
	t := Table{
		Title:  "configuration repair on provider failure",
		Header: []string{"providers", "repaired", "repair time"},
	}
	var errs []error
	for _, n := range pick(s, []int{4}, []int{2, 16, 64}, []int{2, 16, 64, 256}) {
		repaired, elapsed, err := e8Repair(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(repaired), us(elapsed)})
		errs = append(errs, bar(repaired, "e8: %d providers: configuration not repaired", n))
	}
	return []Table{t}, errors.Join(errs...)
}

func e8Repair(n int) (repaired bool, elapsed time.Duration, err error) {
	clk := clock.NewManual(epoch)
	rng := server.New(server.Config{Name: "e8", Clock: clk, AutoRenewEvery: 5 * time.Second})
	defer rng.Close()
	doors := make(map[guid.GUID]*sensor.DoorSensor, n)
	for i := 0; i < n; i++ {
		ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, clk)
		if err := rng.AddEntity(ds); err != nil {
			return false, 0, err
		}
		doors[ds.ID()] = ds
	}
	if err := rng.AddEntity(entity.NewObjLocationCE(nil, clk)); err != nil {
		return false, 0, err
	}
	caa := entity.NewCAA("e8-app", nil, clk)
	if err := rng.AddApplication(caa); err != nil {
		return false, 0, err
	}
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	if _, err := rng.Submit(q); err != nil {
		return false, 0, err
	}
	active := rng.Runtime().Active()
	if len(active) != 1 {
		return false, 0, fmt.Errorf("sim: e8: %d active configurations, want 1", len(active))
	}
	var bound *sensor.DoorSensor
	for _, p := range active[0].Providers {
		if ds, ok := doors[p]; ok {
			bound = ds
		}
	}
	if bound == nil {
		return false, 0, errors.New("sim: e8: no door bound")
	}
	_ = bound.Sight(guid.New(guid.KindPerson), "x")

	// Kill it (clean departure) and time the repair.
	start := time.Now()
	if err := rng.RemoveEntity(bound.ID()); err != nil {
		return false, 0, err
	}
	repaired = len(rng.Runtime().Active()) == 1
	return repaired, time.Since(start), nil
}

// runE9 binds a location subscription to door sightings, removes every
// door, and times the rebind onto the W-LAN base station — the
// cross-representation flexibility iQueue lacks. Bar: it rebinds.
func runE9(s Scale, _ int64) ([]Table, error) {
	doorCount := pick(s, 3, 8, 8)
	clk := clock.NewManual(epoch)
	rng := server.New(server.Config{Name: "e9", Clock: clk, AutoRenewEvery: 5 * time.Second})
	defer rng.Close()

	doors := make([]*sensor.DoorSensor, 0, doorCount)
	for i := 0; i < doorCount; i++ {
		ds := sensor.NewDoorSensor(fmt.Sprintf("d%d", i), location.Ref{}, clk)
		if err := rng.AddEntity(ds); err != nil {
			return nil, err
		}
		doors = append(doors, ds)
	}
	bs := sensor.NewBaseStation("cell", nil, location.Ref{}, clk)
	if err := rng.AddEntity(bs); err != nil {
		return nil, err
	}
	if err := rng.AddEntity(entity.NewObjLocationCE(nil, clk)); err != nil {
		return nil, err
	}
	caa := entity.NewCAA("e9-app", nil, clk)
	if err := rng.AddApplication(caa); err != nil {
		return nil, err
	}
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	if _, err := rng.Submit(q); err != nil {
		return nil, err
	}
	initial := leafType(rng, doors, bs)

	start := time.Now()
	for _, ds := range doors {
		if err := rng.RemoveEntity(ds.ID()); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	rebound := leafType(rng, doors, bs)
	ok := initial == ctxtype.LocationSightingDoor && rebound == ctxtype.LocationSightingWLAN
	t := Table{
		Title:  "semantic rebind door → wlan",
		Header: []string{"initial leaf", "rebound leaf", "rebound", "time"},
		Rows:   [][]string{{string(initial), string(rebound), fmt.Sprint(ok), us(elapsed)}},
	}
	return []Table{t}, bar(ok, "e9: leaf %q → %q, want %s → %s",
		initial, rebound, ctxtype.LocationSightingDoor, ctxtype.LocationSightingWLAN)
}

func leafType(rng *server.Range, doors []*sensor.DoorSensor, bs *sensor.BaseStation) ctxtype.Type {
	for _, st := range rng.Runtime().Active() {
		for _, p := range st.Providers {
			for _, ds := range doors {
				if p == ds.ID() {
					return ctxtype.LocationSightingDoor
				}
			}
			if p == bs.ID() {
				return ctxtype.LocationSightingWLAN
			}
		}
	}
	return ""
}

// runE10 spreads the same entity population over one Range or shards it
// over many and runs profile queries against every Range at once:
// aggregate throughput scales with the Range count because each Context
// Server resolves against its own, smaller profile store.
func runE10(s Scale, _ int64) ([]Table, error) {
	total := pick(s, 80, 800, 800)
	queries := pick(s, 400, 4000, 4000)
	t := Table{
		Title:  "aggregate profile-query throughput vs number of Ranges",
		Header: []string{"ranges", "entities", "queries/s", "per-range/s"},
	}
	for _, rc := range pick(s, []int{1, 4}, []int{1, 4, 16}, []int{1, 4, 16, 64}) {
		perRange := max(total/rc, 1)
		rate, err := e10Rate(rc, perRange, queries/rc)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(rc), fmt.Sprint(perRange * rc),
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", rate/float64(rc))})
	}
	return []Table{t}, nil
}

// e10Rate runs perRangeQueries profile queries against each of rc Ranges
// concurrently and returns the aggregate rate.
func e10Rate(rc, perRange, perRangeQueries int) (float64, error) {
	ranges := make([]*server.Range, rc)
	caas := make([]*entity.CAA, rc)
	defer func() {
		for _, r := range ranges {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i := range ranges {
		ranges[i] = server.New(server.Config{Name: fmt.Sprintf("e10-%d", i)})
		for j := 0; j < perRange; j++ {
			if err := ranges[i].AddEntity(sensor.NewDoorSensor(fmt.Sprintf("d%d-%d", i, j), location.Ref{}, nil)); err != nil {
				return 0, err
			}
		}
		if err := ranges[i].AddEntity(entity.NewObjLocationCE(nil, nil)); err != nil {
			return 0, err
		}
		caas[i] = entity.NewCAA("e10-app", nil, nil)
		if err := ranges[i].AddApplication(caas[i]); err != nil {
			return 0, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, rc)
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perRangeQueries; k++ {
				q := query.New(caas[i].ID(), query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile)
				if _, err := ranges[i].Submit(q); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(perRangeQueries*rc) / time.Since(start).Seconds(), nil
}
