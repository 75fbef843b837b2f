package scinet

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/overlay"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// hierNet is an n-fabric SCINET attached to a super-peer hierarchy. Unlike
// fanNet it runs on the real clock: digest windows, batch delays and relay
// timers elapse on their own, so the big race test below can publish from
// many goroutines without anyone driving a manual clock.
type hierNet struct {
	net     *transport.Memory
	ranges  []*server.Range
	fabrics []*Fabric
}

// newHierNet builds n fabrics, applies the hierarchy spec (called with every
// fabric's node id and the fabric's index), then joins everyone through
// fabric 0.
func newHierNet(t testing.TB, n, batchMax int, spec func(ids []guid.GUID, i int) HierarchyConfig) *hierNet {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{})
	hn := &hierNet{net: net}
	for i := 0; i < n; i++ {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("h%d", i),
			Coverage:       location.Path(fmt.Sprintf("campus/h%d", i)),
			BatchMaxEvents: batchMax,
			BatchMaxDelay:  2 * time.Millisecond,
		})
		f, err := NewFabric(rng, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		hn.ranges = append(hn.ranges, rng)
		hn.fabrics = append(hn.fabrics, f)
	}
	ids := make([]guid.GUID, n)
	for i, f := range hn.fabrics {
		ids[i] = f.NodeID()
	}
	for i, f := range hn.fabrics {
		f.SetHierarchy(spec(ids, i))
	}
	for i, f := range hn.fabrics {
		if i > 0 {
			if err := f.Join(hn.fabrics[0].NodeID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hn
}

func (hn *hierNet) close() {
	for _, f := range hn.fabrics {
		_ = f.Close()
	}
	for _, r := range hn.ranges {
		r.Close()
	}
	_ = hn.net.Close()
}

// digestMatches reports whether a held digest admits typ (nil = unknown =
// not yet converged, for the convergence waits below).
func digestMatches(d *wire.Digest, typ ctxtype.Type) bool {
	return d != nil && (d.Wildcard() || d.MightMatch(string(typ)))
}

func (f *Fabric) upMatches(typ ctxtype.Type) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return digestMatches(f.upDigest, typ)
}

func (f *Fabric) childMatches(child guid.GUID, typ ctxtype.Type) bool {
	l := f.lookupLink(child)
	return l != nil && digestMatches(l.routing().child, typ)
}

// TestHierarchyExactlyOnceAcrossSuperPeers runs a 100-fabric fleet through
// a two-super-level hierarchy — one root, nine mid-level super-peers, ninety
// leaves — with concurrent publishers on leaves under different mids, and
// asserts every subscriber sees every event exactly once: the digest routing
// plus the Via hop set and BatchID window must not duplicate or lose a
// single delivery even while batches climb two levels and fan back down.
func TestHierarchyExactlyOnceAcrossSuperPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("100-fabric fleet: skipped in -short")
	}
	const (
		mids   = 9
		leaves = 90
		total  = 1 + mids + leaves
		perPub = 25
	)
	topic := ctxtype.Type("grid.load")
	hn := newHierNet(t, total, 0, func(ids []guid.GUID, i int) HierarchyConfig {
		cfg := HierarchyConfig{DigestWindow: 5 * time.Millisecond}
		switch {
		case i == 0:
			cfg.SuperPeer = true
		case i <= mids:
			cfg.SuperPeer = true
			cfg.Parent = ids[0]
			cfg.Level = 1
		default:
			cfg.Parent = ids[1+(i-1-mids)%mids]
			cfg.Level = 2
		}
		return cfg
	})
	defer hn.close()

	root := hn.fabrics[0]
	midOf := func(leafIdx int) *Fabric { return hn.fabrics[1+(leafIdx-1-mids)%mids] }

	// Six subscribers on leaves under six different mids; four publishers on
	// other leaves, one of them sharing a mid with a subscriber so the
	// sibling short-path (leaf → mid → leaf, never reaching the root) is
	// exercised alongside the full two-level climb.
	subIdx := []int{10, 11, 12, 13, 14, 15}
	pubIdx := []int{19, 20, 21, 22}
	counters := make([]*counter, len(subIdx))
	for i, si := range subIdx {
		counters[i] = newCounter()
		c := counters[i]
		if _, err := hn.fabrics[si].SubscribeRemote(guid.New(guid.KindEntity), event.Filter{Type: topic}, c.handle); err != nil {
			t.Fatal(err)
		}
	}

	// Convergence: the root has heard from every mid, each mid from its ten
	// leaves, and the digest chain for the topic is complete along every
	// routing segment a published batch will traverse.
	waitFor(t, func() bool {
		if c, _, _ := root.HierarchyCounts(); c != mids {
			return false
		}
		for m := 1; m <= mids; m++ {
			if c, _, _ := hn.fabrics[m].HierarchyCounts(); c != leaves/mids {
				return false
			}
			if !hn.fabrics[m].upMatches(topic) {
				return false
			}
		}
		for _, si := range subIdx {
			mid := midOf(si)
			if !mid.childMatches(hn.fabrics[si].NodeID(), topic) {
				return false
			}
			if !root.childMatches(mid.NodeID(), topic) {
				return false
			}
		}
		for _, pi := range pubIdx {
			if !hn.fabrics[pi].upMatches(topic) || !hn.fabrics[pi].hasTap() {
				return false
			}
		}
		return true
	})

	// The subscribers never flat-announced: their interests travel as
	// digests only, so publishers must not hold flat entries for them.
	for _, pi := range pubIdx {
		for _, si := range subIdx {
			if hn.fabrics[pi].knowsInterest(hn.fabrics[si].NodeID()) {
				t.Fatalf("publisher %d holds a flat interest entry for subscriber %d: hierarchy did not replace flat announcements", pi, si)
			}
		}
	}

	var wg sync.WaitGroup
	for _, pi := range pubIdx {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			src := guid.New(guid.KindDevice)
			for k := 0; k < perPub; k++ {
				e := event.New(topic, src, uint64(k+1), time.Now(), map[string]any{"k": k})
				if err := hn.ranges[pi].Publish(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(pi)
	}
	wg.Wait()

	want := len(pubIdx) * perPub
	for i := range counters {
		c := counters[i]
		waitFor(t, func() bool { return c.exactlyOnce(want) })
	}
	// Late duplicates would arrive after the count is first reached: give
	// the fleet a moment and re-assert.
	time.Sleep(50 * time.Millisecond)
	for i, c := range counters {
		if !c.exactlyOnce(want) {
			t.Fatalf("subscriber %d: %d events delivered across %d ids, want %d exactly once",
				i, c.total(), len(c.seen), want)
		}
	}
}

// TestHierarchySpilloverCounted forces a digest false positive — a leaf
// whose 70 distinct interest prefixes overflow the digest into a wildcard —
// and asserts the resulting unwanted forward is dropped and counted as
// spillover, while genuinely matching events keep flowing. False positives
// must cost traffic, never correctness.
func TestHierarchySpilloverCounted(t *testing.T) {
	hn := newHierNet(t, 3, 0, func(ids []guid.GUID, i int) HierarchyConfig {
		cfg := HierarchyConfig{DigestWindow: 5 * time.Millisecond}
		if i == 0 {
			cfg.SuperPeer = true
		} else {
			cfg.Parent = ids[0]
			cfg.Level = 1
		}
		return cfg
	})
	defer hn.close()
	sub, pub := hn.fabrics[1], hn.fabrics[2]

	c := newCounter()
	for i := 0; i < 70; i++ {
		flt := event.Filter{Type: ctxtype.Type(fmt.Sprintf("w%d.x", i))}
		if _, err := sub.SubscribeRemote(guid.New(guid.KindEntity), flt, c.handle); err != nil {
			t.Fatal(err)
		}
	}

	// The overflowed digest reaches the publisher as a wildcard upward
	// summary (root's downward digest folds the subscriber's subtree in).
	// Wait for the wildcard tap itself, alone: the per-type taps an earlier,
	// not yet overflowed digest installed see neither "nobody.cares" nor,
	// once superseded, anything at all.
	waitFor(t, func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		_, tapped := pub.taps[ctxtype.Wildcard]
		return pub.upDigest != nil && pub.upDigest.Wildcard() && tapped && len(pub.taps) == 1
	})

	src := guid.New(guid.KindDevice)
	if err := hn.ranges[2].Publish(event.New("nobody.cares", src, 1, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sub.SpilloverDropped.Value() >= 1 })
	if got := c.total(); got != 0 {
		t.Fatalf("unmatched event delivered %d times, want spillover drop", got)
	}

	// A matching publish still lands exactly once despite the wildcard.
	if err := hn.ranges[2].Publish(event.New("w3.x", src, 2, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.exactlyOnce(1) })
	if pub.DigestUpdatesSent.Value() == 0 && sub.DigestUpdatesSent.Value() == 0 {
		t.Fatal("no digest updates counted anywhere")
	}
}

// TestHierarchyMinFleetActivation keeps a configured hierarchy flat below
// MinFleet — flat interest announcements and fan-out as before — then
// latches it on when the fleet grows, withdrawing the flat entries and
// carrying later publishes through digests.
func TestHierarchyMinFleetActivation(t *testing.T) {
	topic := ctxtype.Type("grid.volt")
	net := transport.NewMemory(transport.MemoryConfig{})
	defer func() { _ = net.Close() }()
	var ranges []*server.Range
	var fabrics []*Fabric
	defer func() {
		for _, f := range fabrics {
			_ = f.Close()
		}
		for _, r := range ranges {
			r.Close()
		}
	}()
	mk := func(i int) *Fabric {
		rng := server.New(server.Config{
			Name:           fmt.Sprintf("h%d", i),
			Coverage:       location.Path(fmt.Sprintf("campus/h%d", i)),
			BatchMaxDelay:  2 * time.Millisecond,
			BatchMaxEvents: 0,
		})
		f, err := NewFabric(rng, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, rng)
		fabrics = append(fabrics, f)
		return f
	}
	root := mk(0)
	leaf := mk(1)
	leaf.SetHierarchy(HierarchyConfig{Parent: root.NodeID(), MinFleet: 3, DigestWindow: 5 * time.Millisecond})
	root.SetHierarchy(HierarchyConfig{SuperPeer: true, MinFleet: 3, DigestWindow: 5 * time.Millisecond})
	if err := leaf.Join(root.NodeID()); err != nil {
		t.Fatal(err)
	}

	c := newCounter()
	if _, err := leaf.SubscribeRemote(guid.New(guid.KindEntity), event.Filter{Type: topic}, c.handle); err != nil {
		t.Fatal(err)
	}
	// Two fabrics < MinFleet 3: still flat, interest flat-announced.
	waitFor(t, func() bool { return root.knowsInterest(leaf.NodeID()) })
	if root.hierarchyActive() || leaf.hierarchyActive() {
		t.Fatal("hierarchy active below MinFleet")
	}
	src := guid.New(guid.KindDevice)
	if err := ranges[0].Publish(event.New(topic, src, 1, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.exactlyOnce(1) })

	// A third fabric reaches MinFleet: everyone latches on, the leaf
	// withdraws its flat entry, and the digest chain replaces it.
	third := mk(2)
	third.SetHierarchy(HierarchyConfig{Parent: root.NodeID(), MinFleet: 3, DigestWindow: 5 * time.Millisecond})
	if err := third.Join(root.NodeID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return root.hierarchyActive() && leaf.hierarchyActive() && third.hierarchyActive()
	})
	waitFor(t, func() bool {
		return !root.knowsInterest(leaf.NodeID()) && root.childMatches(leaf.NodeID(), topic)
	})
	waitFor(t, func() bool { return third.upMatches(topic) && third.hasTap() })
	if err := ranges[2].Publish(event.New(topic, src, 2, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.exactlyOnce(2) })
}

// interestRecorder is a bare overlay node on the fabric's memory network
// that records the appInterest announcements one fabric routes to it
// directly — the wire-level witness for the announcement tests.
// Re-gossiped copies relayed by other fabrics are ignored (same payload,
// different origin).
type interestRecorder struct {
	node *overlay.Node
	mu   sync.Mutex
	msgs []interestMsg
}

func newInterestRecorder(t *testing.T, fn *fanNet, from guid.GUID) *interestRecorder {
	t.Helper()
	rec := &interestRecorder{}
	node, err := overlay.NewNode(overlay.Config{
		Network: fn.net,
		Clock:   fn.clk,
		Deliver: func(d overlay.Delivery) {
			if d.AppKind != appInterest || d.Origin != from {
				return
			}
			var msg interestMsg
			if json.Unmarshal(d.Payload, &msg) != nil || msg.Owner != from {
				return
			}
			rec.mu.Lock()
			rec.msgs = append(rec.msgs, msg)
			rec.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.node = node
	if err := node.Join(fn.fabrics[0].NodeID()); err != nil {
		t.Fatal(err)
	}
	return rec
}

func (r *interestRecorder) recorded() []interestMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]interestMsg(nil), r.msgs...)
}

// TestInterestWholeSetAnnouncements watches the wire: every change of a
// fabric's interests travels as its whole set under the next generation —
// a withdrawal that empties the set as the empty set.
func TestInterestWholeSetAnnouncements(t *testing.T) {
	fn := newFanNet(t, 2, 0)
	defer fn.close()
	waitCoverage(t, fn)
	fb := fn.fabrics[1]

	rec := newInterestRecorder(t, fn, fb.NodeID())
	// Introduce the recorder to fb: any message makes its sender a known
	// peer, and known peers get interest announcements.
	hello, err := json.Marshal(interestMsg{Owner: rec.node.ID(), Gen: 1, Filters: []event.Filter{{Type: "hello.x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.node.Send(fb.NodeID(), appInterest, hello, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fb.knowsInterest(rec.node.ID()) })

	fltA := event.Filter{Type: "d.a"}
	fltB := event.Filter{Type: "d.b"}
	steps := []struct {
		change func()
		want   []event.Filter
	}{
		{func() { fb.AddInterest(fltA) }, []event.Filter{fltA}},
		{func() { fb.AddInterest(fltB) }, []event.Filter{fltA, fltB}},
		{func() { fb.RemoveInterest(fltA) }, []event.Filter{fltB}},
		{func() { fb.RemoveInterest(fltB) }, nil},
	}
	for i, st := range steps {
		st.change()
		waitFor(t, func() bool { return len(rec.recorded()) > i })
	}
	msgs := rec.recorded()
	if len(msgs) != len(steps) {
		t.Fatalf("%d announcements for %d changes", len(msgs), len(steps))
	}
	for i, st := range steps {
		// The generation counter starts at 1, so the first change is 2.
		if m := msgs[i]; m.Gen != uint64(i+2) || !slices.Equal(m.Filters, st.want) {
			t.Fatalf("announcement %d = gen %d %v, want gen %d %v", i, m.Gen, m.Filters, i+2, st.want)
		}
	}
}

// TestInterestDeltaGapResync rolls the holder back as if one announcement
// was lost, and asserts that the owner's next announcement alone restores
// the whole set: interests travel as whole sets, so a gap needs no resync
// round trip. An announcement at a generation no newer than the held one is
// never applied.
func TestInterestDeltaGapResync(t *testing.T) {
	fn := newFanNet(t, 2, 0)
	defer fn.close()
	waitCoverage(t, fn)
	fa, fb := fn.fabrics[0], fn.fabrics[1]

	fltA := event.Filter{Type: "g.a"}
	fltB := event.Filter{Type: "g.b"}
	fltC := event.Filter{Type: "g.c"}
	fb.AddInterest(fltA)
	waitFor(t, func() bool { return len(fa.Interests()[fb.NodeID()]) == 1 })
	fb.AddInterest(fltB)
	waitFor(t, func() bool { return len(fa.Interests()[fb.NodeID()]) == 2 })

	// Roll fa back to generation 2 (fb's first) holding only fltA: to fa the
	// generation-3 announcement is lost.
	lb := fa.lookupLink(fb.NodeID())
	fa.mu.Lock()
	lb.mu.Lock()
	lb.row.interests = []event.Filter{fltA}
	lb.interestGen = 2
	lb.mu.Unlock()
	fa.refreshInterestSnapLocked()
	fa.mu.Unlock()

	held := func() ([]event.Filter, uint64) {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return lb.row.interests, lb.interestGen
	}
	fb.AddInterest(fltC)
	want := []event.Filter{fltA, fltB, fltC}
	waitFor(t, func() bool {
		flts, gen := held()
		return slices.Equal(flts, want) && gen == 4
	})

	stale := []event.Filter{{Type: "stale.x"}}
	for _, gen := range []uint64{0, 3, 4} {
		payload, err := json.Marshal(interestMsg{Owner: fb.NodeID(), Gen: gen, Filters: stale})
		if err != nil {
			t.Fatal(err)
		}
		fa.deliver(overlay.Delivery{Origin: fb.NodeID(), AppKind: appInterest, Payload: payload})
		if flts, got := held(); !slices.Equal(flts, want) || got != 4 {
			t.Fatalf("an announcement at generation %d was applied: now %v at generation %d", gen, flts, got)
		}
	}
}

// TestInterestSyncReplyClearsGhostEntry: an entry the holder keeps for an
// owner that never announced it (a ghost) is replaced by the owner's next
// announcement, and the owner's empty set withdraws the entry. Generation
// zero is malformed and never applied, whether or not the owner is held.
func TestInterestSyncReplyClearsGhostEntry(t *testing.T) {
	fn := newFanNet(t, 2, 0)
	defer fn.close()
	waitCoverage(t, fn)
	fa, fb := fn.fabrics[0], fn.fabrics[1]

	ghost := []event.Filter{{Type: "ghost.x"}}
	for _, owner := range []guid.GUID{fb.NodeID(), guid.New(guid.KindServer)} {
		zero, err := json.Marshal(interestMsg{Owner: owner, Gen: 0, Filters: ghost})
		if err != nil {
			t.Fatal(err)
		}
		fa.deliver(overlay.Delivery{Origin: fb.NodeID(), AppKind: appInterest, Payload: zero})
		if fa.knowsInterest(owner) {
			t.Fatal("a generation-zero announcement was applied")
		}
	}

	// Plant the ghost on fa's row for fb, keeping the generation fa holds.
	fa.mu.Lock()
	lb := fa.linkLocked(fb.NodeID())
	lb.mu.Lock()
	lb.row.interests = ghost
	lb.mu.Unlock()
	fa.refreshInterestSnapLocked()
	fa.mu.Unlock()
	if !fa.knowsInterest(fb.NodeID()) {
		t.Fatal("the planted ghost entry is not held")
	}

	held := func() ([]event.Filter, uint64) {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return lb.row.interests, lb.interestGen
	}
	fltA := event.Filter{Type: "g.a"}
	fb.AddInterest(fltA)
	waitFor(t, func() bool {
		flts, gen := held()
		return slices.Equal(flts, []event.Filter{fltA}) && gen == 2
	})
	fb.RemoveInterest(fltA)
	waitFor(t, func() bool {
		_, gen := held()
		return gen == 3 && !fa.knowsInterest(fb.NodeID())
	})
}

// TestInterestSnapshotSkipsEmptyEntries pins the copy-on-write snapshot
// optimization: an entry with no filters can never match and must not cost
// fan-out and relay a scan slot.
func TestInterestSnapshotSkipsEmptyEntries(t *testing.T) {
	fn := newFanNet(t, 1, 0)
	defer fn.close()
	f := fn.fabrics[0]
	empty := guid.New(guid.KindServer)
	full := guid.New(guid.KindServer)
	f.setInterests(map[guid.GUID][]event.Filter{empty: {}, full: {{Type: "s.t"}}})
	snap := f.interestSnapshot()
	if len(snap) != 1 || snap[0].owner != full {
		t.Fatalf("snapshot holds %d entries, want only the non-empty one", len(snap))
	}
}

// TestDigestReachesLateConfiguredParent: a child that already holds an
// interest activates its hierarchy before its parent is configured, so its
// first digest reaches a parent that drops it. The child must re-send the
// digest once it first hears from the parent (the parent's coverage), or
// the parent would never route the child's interest.
func TestDigestReachesLateConfiguredParent(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	var fabs []*Fabric
	for i := 0; i < 2; i++ {
		rng := server.New(server.Config{
			Name:     fmt.Sprintf("late%d", i),
			Coverage: location.Path(fmt.Sprintf("campus/late%d", i)),
		})
		defer rng.Close()
		f, err := NewFabric(rng, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabs = append(fabs, f)
	}
	parent, child := fabs[0], fabs[1]
	topic := ctxtype.Type("late.topic")
	child.AddInterest(event.Filter{Type: topic})
	child.SetHierarchy(HierarchyConfig{Parent: parent.NodeID(), Level: 1})
	// The child's first digest lands while the parent is unconfigured. A
	// probe queued behind it on the parent's inbox shows it was handled:
	// the parent's second delivery starts only after the digest's returns.
	waitFor(t, func() bool { return child.DigestUpdatesSent.Value() > 0 })
	if err := child.node.Send(parent.NodeID(), "test.probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return parent.node.Delivered() >= 2 })
	parent.SetHierarchy(HierarchyConfig{SuperPeer: true})
	if err := child.Join(parent.NodeID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return parent.childMatches(child.NodeID(), topic) })
}

// TestSuperPeerDeathCountsLoss: a 7-fabric tree (root, two mid-level
// super-peers, two leaves under each) with a subscriber on a leaf under mid
// 1 and a publisher on a leaf under mid 2. Once mid 2 — the publisher's
// parent — is closed, the publisher's batches still head for it and the
// transport refuses them; each refused event must be counted as a forward
// failure, never lost silently: delivered plus the publisher's
// remote.forward_failures accounts for every event published after the
// death. (Degrading to flat routing would deliver them instead.)
func TestSuperPeerDeathCountsLoss(t *testing.T) {
	topic := ctxtype.Type("grid.freq")
	hn := newHierNet(t, 7, 0, func(ids []guid.GUID, i int) HierarchyConfig {
		cfg := HierarchyConfig{DigestWindow: 5 * time.Millisecond, SuperPeer: i <= 2}
		switch {
		case i == 1 || i == 2:
			cfg.Parent, cfg.Level = ids[0], 1
		case i > 2:
			cfg.Parent, cfg.Level = ids[1+(i-3)/2], 2
		}
		return cfg
	})
	defer hn.close()
	root, mid1, mid2 := hn.fabrics[0], hn.fabrics[1], hn.fabrics[2]
	sub, pub := hn.fabrics[3], hn.fabrics[5]

	c := newCounter()
	if _, err := sub.SubscribeRemote(guid.New(guid.KindEntity), event.Filter{Type: topic}, c.handle); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return mid1.childMatches(sub.NodeID(), topic) && root.childMatches(mid1.NodeID(), topic) &&
			mid2.upMatches(topic) && pub.upMatches(topic) && pub.hasTap()
	})
	src := guid.New(guid.KindDevice)
	publish := func(from uint64) {
		t.Helper()
		for k := from; k < from+10; k++ {
			if err := hn.ranges[5].Publish(event.New(topic, src, k, time.Now(), nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(1)
	waitFor(t, func() bool { return c.exactlyOnce(10) })

	if err := mid2.Close(); err != nil {
		t.Fatal(err)
	}
	// The publisher has taken in mid 2's withdrawal and departure: its
	// parent's summary is gone, so it taps everything for the parent.
	waitFor(t, func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		_, wild := pub.taps[ctxtype.Wildcard]
		return pub.upDigest == nil && pub.links[mid2.NodeID()] == nil && wild && len(pub.taps) == 1
	})
	publish(11)
	accounted := func() int {
		return c.total() - 10 + int(hn.ranges[5].StatsMap()["remote.forward_failures"])
	}
	waitFor(t, func() bool { return accounted() >= 10 })
	if got := accounted(); got != 10 {
		t.Fatalf("delivered %d + forward failures %v = %d after the super-peer died, want 10",
			c.total()-10, hn.ranges[5].StatsMap()["remote.forward_failures"], got)
	}
}
