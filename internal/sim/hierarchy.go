package sim

// Grid-scale interest routing. A fleet of N fabrics carries the same
// pub/sub workload twice — once flat (every interest flooded to every
// fabric) and once attached to a super-peer hierarchy (⌈√N⌉ root
// super-peers in a digest-exchanging clique, leaves spread round-robin
// below them). The workload is fixed — a constant subscriber and publisher
// population — while the fleet grows around it, and a background set of
// fabrics churns interests in types nobody publishes: the mobility-grade
// noise that makes flat flooding quadratic. Under that fixed workload any
// growth in messages-per-publish is pure routing overhead, which is
// exactly what must stay sublinear in N. The experiment measures
// per-fabric interest-routing state and total overlay messages per
// published event, with delivery losses, duplicates and digest
// false-positive spillover accounted; e16Check holds the bars.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/transport"
)

// e16Row is one (fleet size, routing mode) measurement.
type e16Row struct {
	fabrics int
	mode    string // "flat" or "hier"

	// avgInterestEntries is the mean per-fabric interest-routing state:
	// non-empty flat interest-table entries plus hierarchy digest links.
	avgInterestEntries float64
	// msgsPerPublish is total overlay traffic (deliveries + relays summed
	// fleet-wide, interest gossip and digest updates included) during the
	// measured phase, per published event.
	msgsPerPublish float64

	published int
	expected  int // published × subscribers
	delivered int
	lost      int
	dups      int

	// spillover counts batches a digest false positive forwarded to a
	// fabric with no matching consumer; spilloverFrac is that against all
	// forwarded batches (fan-out + relay) in the measured phase.
	spillover     uint64
	spilloverFrac float64
	digestUpdates uint64
}

// e16Topics: the measured workload topic, the readiness probe topic, and
// the churned noise prefix nobody publishes.
const (
	e16LoadTopic  = ctxtype.Type("grid.load")
	e16ProbeTopic = ctxtype.Type("grid.probe")
)

// e16Counter tallies deliveries per event id for one subscriber.
type e16Counter struct {
	mu   sync.Mutex
	seen map[guid.GUID]int
}

func (c *e16Counter) handle(e event.Event) {
	c.mu.Lock()
	if c.seen == nil {
		c.seen = make(map[guid.GUID]int)
	}
	c.seen[e.ID]++
	c.mu.Unlock()
}

// uniqueAndDups reports distinct event ids seen and surplus deliveries.
func (c *e16Counter) uniqueAndDups() (unique, dups int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.seen {
		unique++
		dups += n - 1
	}
	return unique, dups
}

// e16Probes tracks which publishers' probe events each subscriber has seen.
type e16Probes struct {
	mu   sync.Mutex
	seen []map[guid.GUID]bool
}

func newE16Probes(subs int) *e16Probes {
	p := &e16Probes{seen: make([]map[guid.GUID]bool, subs)}
	for i := range p.seen {
		p.seen[i] = make(map[guid.GUID]bool)
	}
	return p
}

func (p *e16Probes) handler(sub int) func(event.Event) {
	return func(e event.Event) {
		p.mu.Lock()
		p.seen[sub][e.Source] = true
		p.mu.Unlock()
	}
}

func (p *e16Probes) allSaw(srcs []guid.GUID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.seen {
		for _, s := range srcs {
			if !m[s] {
				return false
			}
		}
	}
	return true
}

// runE16One runs one fleet at one size in one mode and measures it.
func runE16One(n, perPub int, hier bool) (e16Row, error) {
	const (
		publishers  = 4
		churners    = 8
		churnRounds = 3
	)
	supers := int(math.Ceil(math.Sqrt(float64(n))))
	const subs = 8
	if n < supers+subs+publishers+churners {
		return e16Row{}, fmt.Errorf("sim: e16 fleet of %d too small for %d supers + %d subs + %d pubs + %d churners",
			n, supers, subs, publishers, churners)
	}
	mode := "flat"
	if hier {
		mode = "hier"
	}

	net := transport.NewMemory(transport.MemoryConfig{})
	var ranges []*server.Range
	var fabrics []*scinet.Fabric
	defer func() {
		for _, f := range fabrics {
			_ = f.Close()
		}
		for _, r := range ranges {
			r.Close()
		}
		_ = net.Close()
	}()
	for i := 0; i < n; i++ {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("e16-%s-%d", mode, i),
			Coverage:       location.Path(fmt.Sprintf("grid/%s/%d", mode, i)),
			BatchMaxEvents: 8,
			BatchMaxDelay:  2 * time.Millisecond,
		})
		f, err := scinet.NewFabric(rng, net, nil)
		if err != nil {
			rng.Close()
			return e16Row{}, err
		}
		ranges, fabrics = append(ranges, rng), append(fabrics, f)
	}
	if hier {
		// ⌈√N⌉ super-peers form a root forest exchanging digests as a
		// clique; every leaf attaches round-robin below one of them.
		ids := make([]guid.GUID, n)
		for i, f := range fabrics {
			ids[i] = f.NodeID()
		}
		for i, f := range fabrics {
			cfg := scinet.HierarchyConfig{DigestWindow: 20 * time.Millisecond}
			if i < supers {
				cfg.SuperPeer = true
				for j := 0; j < supers; j++ {
					if j != i {
						cfg.Peers = append(cfg.Peers, ids[j])
					}
				}
			} else {
				cfg.Parent = ids[(i-supers)%supers]
				cfg.Level = 1
			}
			f.SetHierarchy(cfg)
		}
	}
	for i, f := range fabrics {
		if i > 0 {
			if err := f.Join(fabrics[0].NodeID()); err != nil {
				return e16Row{}, err
			}
		}
	}

	subIdx := make([]int, subs)
	for i := range subIdx {
		subIdx[i] = supers + i
	}
	pubIdx := make([]int, publishers)
	for i := range pubIdx {
		pubIdx[i] = supers + subs + i
	}
	churnIdx := make([]int, churners)
	for i := range churnIdx {
		churnIdx[i] = supers + subs + publishers + i
	}

	counters := make([]*e16Counter, subs)
	probes := newE16Probes(subs)
	for i, si := range subIdx {
		counters[i] = &e16Counter{}
		if _, err := fabrics[si].SubscribeRemote(guid.New(guid.KindApplication),
			event.Filter{Type: e16LoadTopic}, counters[i].handle); err != nil {
			return e16Row{}, err
		}
		if _, err := fabrics[si].SubscribeRemote(guid.New(guid.KindApplication),
			event.Filter{Type: e16ProbeTopic}, probes.handler(i)); err != nil {
			return e16Row{}, err
		}
	}

	// Readiness probes: repeat a probe event per publisher until every
	// subscriber has heard every publisher — the interest (or digest) path
	// from each publisher to each subscriber is proven live before the
	// measured phase starts. Probe traffic is excluded from the metrics by
	// snapshotting counters after it settles.
	probeSrcs := make([]guid.GUID, publishers)
	for i := range probeSrcs {
		probeSrcs[i] = guid.New(guid.KindDevice)
	}
	probeDeadline := time.Now().Add(20 * time.Second)
	seq := uint64(0)
	for !probes.allSaw(probeSrcs) {
		if time.Now().After(probeDeadline) {
			return e16Row{}, fmt.Errorf("sim: e16 %s/%d: pub→sub paths not live within 20s", mode, n)
		}
		seq++
		for i, pi := range pubIdx {
			e := event.New(e16ProbeTopic, probeSrcs[i], seq, time.Now(), nil)
			if err := ranges[pi].Publish(e); err != nil {
				return e16Row{}, err
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let probe traffic drain

	sumCounters := func() (msgs, fwd, spill, dig uint64) {
		for _, f := range fabrics {
			d, r := f.OverlayCounters()
			msgs += d + r
			fwd += f.BatchesForwarded.Value() + f.BatchesRelayed.Value()
			spill += f.SpilloverDropped.Value()
			dig += f.DigestUpdatesSent.Value()
		}
		return
	}
	baseMsgs, baseFwd, baseSpill, baseDig := sumCounters()

	// Measured phase: the publishers stream their events while the churn
	// fabrics add and withdraw interests in types nobody publishes — the
	// background interest mobility a grid fleet lives with.
	var wg sync.WaitGroup
	for i, pi := range pubIdx {
		wg.Add(1)
		go func(i, pi int) {
			defer wg.Done()
			src := guid.New(guid.KindDevice)
			chunk := make([]event.Event, 0, 8)
			for k := 0; k < perPub; k++ {
				chunk = append(chunk, event.New(e16LoadTopic, src, uint64(k+1), time.Now(),
					map[string]any{"pub": i, "k": k}))
				if len(chunk) == 8 || k == perPub-1 {
					if err := ranges[pi].PublishAll(chunk); err != nil {
						return
					}
					chunk = chunk[:0]
				}
			}
		}(i, pi)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < churnRounds; r++ {
			for c, ci := range churnIdx {
				fabrics[ci].AddInterest(event.Filter{Type: ctxtype.Type(fmt.Sprintf("noise.c%d.r%d", c, r))})
			}
			time.Sleep(20 * time.Millisecond)
			for c, ci := range churnIdx {
				fabrics[ci].RemoveInterest(event.Filter{Type: ctxtype.Type(fmt.Sprintf("noise.c%d.r%d", c, r))})
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()

	published := publishers * perPub
	if err := waitUntil(30*time.Second, fmt.Sprintf("e16: %s/%d: every subscriber saw all %d events", mode, n, published), func() bool {
		for _, c := range counters {
			if u, _ := c.uniqueAndDups(); u < published {
				return false
			}
		}
		return true
	}); err != nil {
		return e16Row{}, err
	}
	time.Sleep(300 * time.Millisecond) // drain trailing gossip and relays

	endMsgs, endFwd, endSpill, endDig := sumCounters()
	row := e16Row{
		fabrics:       n,
		mode:          mode,
		published:     published,
		expected:      published * subs,
		spillover:     endSpill - baseSpill,
		digestUpdates: endDig - baseDig,
	}
	for _, c := range counters {
		u, d := c.uniqueAndDups()
		row.delivered += u
		row.dups += d
	}
	row.lost = row.expected - row.delivered
	if published > 0 {
		row.msgsPerPublish = float64(endMsgs-baseMsgs) / float64(published)
	}
	if fwd := endFwd - baseFwd; fwd > 0 {
		row.spilloverFrac = float64(row.spillover) / float64(fwd)
	}
	entries := 0
	for _, f := range fabrics {
		entries += f.InterestStateSize()
	}
	row.avgInterestEntries = float64(entries) / float64(n)
	return row, nil
}

// runE16 measures flat and hierarchical interest routing at each fleet
// size; rows come in (flat, hier) pairs.
func runE16(s Scale, _ int64) ([]Table, error) {
	perPub := pick(s, 10, 100, 100)
	var rows []e16Row
	for _, n := range pick(s, []int{28, 40}, []int{32, 64, 128}, []int{32, 64, 128, 256}) {
		for _, hier := range []bool{false, true} {
			row, err := runE16One(n, perPub, hier)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	t := Table{
		Title: "hierarchical digest routing vs flat interest flooding",
		Header: []string{"fabrics", "mode", "entries/fabric", "msgs/publish",
			"published", "delivered", "lost", "dups", "spillover", "digests"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.fabrics), r.mode,
			fmt.Sprintf("%.1f", r.avgInterestEntries), fmt.Sprintf("%.1f", r.msgsPerPublish),
			fmt.Sprint(r.published), fmt.Sprintf("%d/%d", r.delivered, r.expected), fmt.Sprint(r.lost), fmt.Sprint(r.dups),
			fmt.Sprintf("%d (%.2f%%)", r.spillover, r.spilloverFrac*100), fmt.Sprint(r.digestUpdates)})
	}
	return []Table{t}, e16Check(rows, s != Quick)
}

// e16Check holds the bars on (flat, hier) row pairs. At every size no
// delivery is lost or duplicated, the hierarchy exchanges digests and holds
// less interest state than flat flooding. A full sweep also needs, at the
// largest fleet, the hierarchy at most halving both interest state and
// messages per publish, their growth across the sweep sublinear (log-log
// slope < 1), and spillover under 5% of forwarded batches; the Quick
// fleets are too small for those to mean anything.
func e16Check(rows []e16Row, sweep bool) error {
	var errs []error
	for _, r := range rows {
		errs = append(errs,
			bar(r.lost == 0 && r.dups == 0, "e16: %s/%d lost %d and duplicated %d deliveries, want zero", r.mode, r.fabrics, r.lost, r.dups),
			bar(r.mode == "flat" || r.digestUpdates > 0, "e16: hier/%d exchanged no digests", r.fabrics),
			bar(!sweep || r.mode == "flat" || r.spilloverFrac < 0.05,
				"e16: hier/%d spillover %.1f%% of forwarded batches, want < 5%%", r.fabrics, r.spilloverFrac*100))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		flat, hier := rows[i], rows[i+1]
		errs = append(errs, bar(hier.avgInterestEntries < flat.avgInterestEntries,
			"e16: hier/%d holds %.1f interest entries/fabric vs flat %.1f", hier.fabrics, hier.avgInterestEntries, flat.avgInterestEntries))
	}
	if !sweep {
		return errors.Join(errs...)
	}
	flat, first, last := rows[len(rows)-2], rows[1], rows[len(rows)-1]
	slope := func(m0, m1 float64) float64 {
		if m0 <= 0 || m1 <= 0 {
			return 0 // degenerate: nothing grew
		}
		return math.Log(m1/m0) / math.Log(float64(last.fabrics)/float64(first.fabrics))
	}
	msgSlope := slope(first.msgsPerPublish, last.msgsPerPublish)
	entrySlope := slope(first.avgInterestEntries, last.avgInterestEntries)
	errs = append(errs,
		bar(last.avgInterestEntries <= 0.5*flat.avgInterestEntries,
			"e16: at %d fabrics hier holds %.1f interest entries/fabric vs flat %.1f, want ≤ 0.5×",
			last.fabrics, last.avgInterestEntries, flat.avgInterestEntries),
		bar(last.msgsPerPublish <= 0.5*flat.msgsPerPublish,
			"e16: at %d fabrics hier costs %.1f msgs/publish vs flat %.1f, want ≤ 0.5×",
			last.fabrics, last.msgsPerPublish, flat.msgsPerPublish),
		bar(msgSlope < 1, "e16: hier msgs/publish grows with slope %.2f across %d→%d fabrics, want sublinear (< 1)",
			msgSlope, first.fabrics, last.fabrics),
		bar(entrySlope < 1, "e16: hier interest entries grow with slope %.2f across %d→%d fabrics, want sublinear (< 1)",
			entrySlope, first.fabrics, last.fabrics))
	return errors.Join(errs...)
}
