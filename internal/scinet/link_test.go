package scinet

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/overlay"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// peerFixture is one fabric on a memory network plus bare overlay nodes
// standing in for remote fabrics: a test speaks for a fake peer by handing
// the fabric deliveries from it, and reads what the fabric sent the peer
// from its inbox.
type peerFixture struct {
	clk   *clock.Manual
	net   *transport.Memory
	rng   *server.Range
	f     *Fabric
	peers []*fakePeer
}

type fakePeer struct {
	node  *overlay.Node
	inbox chan overlay.Delivery
}

func newPeerFixture(t testing.TB, batchMax int) *peerFixture {
	t.Helper()
	clk := clock.NewManual(epoch)
	net := transport.NewMemory(transport.MemoryConfig{Clock: clk})
	rng := server.New(server.Config{
		Name: "home", Clock: clk, Coverage: "campus/home",
		BatchMaxEvents: batchMax, BatchMaxDelay: 2 * time.Millisecond,
	})
	f, err := NewFabric(rng, net, clk)
	if err != nil {
		t.Fatal(err)
	}
	return &peerFixture{clk: clk, net: net, rng: rng, f: f}
}

// addPeer attaches a fake peer to the network; with a non-empty coverage
// the fabric learns it as that area's Range.
func (pf *peerFixture) addPeer(t testing.TB, coverage location.Path) *fakePeer {
	t.Helper()
	p := &fakePeer{inbox: make(chan overlay.Delivery, 256)}
	node, err := overlay.NewNode(overlay.Config{
		Network: pf.net,
		Clock:   pf.clk,
		Deliver: func(d overlay.Delivery) {
			select {
			case p.inbox <- d:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.node = node
	pf.peers = append(pf.peers, p)
	if coverage != "" {
		pf.from(t, p, appCoverage, coverageMsg{Coverage: coverage, Name: string(coverage)})
	}
	return p
}

func (p *fakePeer) id() guid.GUID { return p.node.ID() }

// await returns the next delivery of the given kind the fabric sent p.
func (p *fakePeer) await(t testing.TB, kind string) overlay.Delivery {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-p.inbox:
			if d.AppKind == kind {
				return d
			}
		case <-deadline:
			t.Fatalf("no %s reached the fake peer", kind)
		}
	}
}

// from delivers msg to the fabric as a kind payload sent by p.
func (pf *peerFixture) from(t testing.TB, p *fakePeer, kind string, msg any) {
	t.Helper()
	payload, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	pf.f.deliver(overlay.Delivery{Origin: p.id(), AppKind: kind, Payload: payload})
}

func (pf *peerFixture) close() {
	_ = pf.f.Close()
	for _, p := range pf.peers {
		_ = p.node.Close()
	}
	pf.rng.Close()
	_ = pf.net.Close()
}

// submitAsync submits a subscription query for an area under p's coverage
// on behalf of caa, returning the query and a channel with Submit's error.
func (pf *peerFixture) submitAsync(caa *entity.CAA, area location.Path) (query.Query, <-chan error) {
	q := query.New(caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	q.Where.Explicit = location.AtPath(area)
	done := make(chan error, 1)
	go func() {
		_, err := pf.f.Submit(q, caa)
		done <- err
	}()
	return q, done
}

func awaitSubmit(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still blocked")
		return nil
	}
}

// TestSubmitFailsWhenTargetLeaves: a Submit whose serving fabric announces
// its departure fails at once with ErrNoCoveringRange instead of waiting
// out RequestTimeout (the manual clock here never gets there).
func TestSubmitFailsWhenTargetLeaves(t *testing.T) {
	pf := newPeerFixture(t, 8)
	defer pf.close()
	x := pf.addPeer(t, "campus/x")
	_, done := pf.submitAsync(entity.NewCAA("app", nil, pf.clk), "campus/x/room")
	x.await(t, appQuery)

	pf.f.deliver(overlay.Delivery{Origin: x.id(), AppKind: appLeave})
	if err := awaitSubmit(t, done); !errors.Is(err, ErrNoCoveringRange) {
		t.Fatalf("Submit after the target left = %v, want ErrNoCoveringRange", err)
	}
}

// TestSubmitFailsWhenTargetTornDown: once the serving fabric is torn down
// (as a refused send does), its late success reply must not complete the
// Submit — no consumer is registered any more, so the application would
// never get an event — and the stray success is withdrawn at its sender.
func TestSubmitFailsWhenTargetTornDown(t *testing.T) {
	pf := newPeerFixture(t, 8)
	defer pf.close()
	x := pf.addPeer(t, "campus/x")
	q, done := pf.submitAsync(entity.NewCAA("app", nil, pf.clk), "campus/x/room")
	x.await(t, appQuery)

	pf.f.peerGone(x.id())
	pf.from(t, x, appQueryResult, queryResultMsg{QueryID: q.ID, Configuration: guid.New(guid.KindConfiguration)})
	if err := awaitSubmit(t, done); !errors.Is(err, ErrNoCoveringRange) {
		t.Fatalf("Submit after the target was torn down = %v, want ErrNoCoveringRange", err)
	}
	var cancel cancelMsg
	if err := json.Unmarshal(x.await(t, appCancel).Payload, &cancel); err != nil || cancel.QueryID != q.ID {
		t.Fatalf("stray success not withdrawn: cancel %+v, %v", cancel, err)
	}
}

// TestForgedReplyIgnored: only the fabric a query was sent to may answer
// it. A success reply and a routed result batch for the same query id from
// any other fabric neither complete the Submit nor reach the consumer; the
// target's own reply and results do.
func TestForgedReplyIgnored(t *testing.T) {
	pf := newPeerFixture(t, 8)
	defer pf.close()
	x := pf.addPeer(t, "campus/x")
	y := pf.addPeer(t, "campus/y")
	consumed := make(chan event.Event, 16)
	caa := entity.NewCAA("app", func(e event.Event) { consumed <- e }, pf.clk)
	q, done := pf.submitAsync(caa, "campus/x/room")
	x.await(t, appQuery)

	results := func(p *fakePeer) {
		pf.f.deliver(overlay.Delivery{Origin: p.id(), AppKind: appEventBatch,
			Batch: &wire.NativeBatch{Events: makeEvents(2, pf.clk), Origin: p.id(), Query: q.ID}})
	}
	pf.from(t, y, appQueryResult, queryResultMsg{QueryID: q.ID})
	results(y)
	select {
	case err := <-done:
		t.Fatalf("a forged reply completed the Submit (err %v)", err)
	case e := <-consumed:
		t.Fatalf("a forged result batch reached the consumer (event %v)", e.ID)
	case <-time.After(50 * time.Millisecond):
	}

	pf.from(t, x, appQueryResult, queryResultMsg{QueryID: q.ID})
	if err := awaitSubmit(t, done); err != nil {
		t.Fatalf("the target's own reply: Submit = %v", err)
	}
	results(x)
	if len(consumed) != 2 {
		t.Fatalf("the target's results reached the consumer %d times, want 2", len(consumed))
	}
}

// TestForwardFailuresCounted: an interested peer drops off the network
// without a word (its endpoint detaches, so the transport refuses sends to
// it, unlike a Memory.Partition, which loses messages silently and leaves
// the sender nothing to see). Every event the fabric then fails to forward
// to it is counted, so forward failures plus what the peer received add up
// to everything published, and Range.StatsMap reports the count on a flat
// fabric too.
func TestForwardFailuresCounted(t *testing.T) {
	pf := newPeerFixture(t, 64)
	defer pf.close()
	p := pf.addPeer(t, "")
	pf.from(t, p, appInterest, interestMsg{Owner: p.id(), Gen: 1,
		Filters: []event.Filter{{Type: ctxtype.TemperatureCelsius}}})
	waitFor(t, pf.f.hasTap)

	// publish sends one run and flushes it on the delay timer.
	publish := func(n int) {
		t.Helper()
		if err := pf.rng.PublishAll(makeEvents(n, pf.clk)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return pf.f.fan.PendingLen() == n })
		pf.clk.Advance(2 * time.Millisecond)
	}
	const total, before = 10, 4
	publish(before)
	delivered := len(p.await(t, appEventBatch).Batch.Events)
	if delivered != before {
		t.Fatalf("the live peer received %d events, want %d", delivered, before)
	}

	_ = p.node.Close()
	publish(total - before)
	if got := pf.f.ForwardFailures.Value(); got != uint64(total-delivered) {
		t.Fatalf("ForwardFailures = %d, want %d (published %d, delivered %d)", got, total-delivered, total, delivered)
	}
	if got := pf.rng.StatsMap()["remote.forward_failures"]; got != float64(total-delivered) {
		t.Fatalf("remote.forward_failures = %v, want %d", got, total-delivered)
	}
}

// senderState is what a fabric holds on one remote fabric's link that a
// control message could change.
type senderState struct {
	linked    bool
	coverage  location.Path
	child     *wire.Digest
	dropBase  uint64
	dropKnown bool
	served    int
}

func (pf *peerFixture) stateOf(p *fakePeer) senderState {
	l := pf.f.lookupLink(p.id())
	if l == nil {
		return senderState{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := senderState{linked: true, child: l.row.child, dropBase: l.dropBase, dropKnown: l.dropKnown, served: len(l.served)}
	if l.row.coverage != nil {
		st.coverage = l.row.coverage.Coverage
	}
	return st
}

// TestControlActsOnSenderLink: no control body names its sender, so a
// message from fabric Z may change only Z's link. X's link — its
// coverage, child digest, served query and fan-credit baseline — stays as
// it was whatever Z sends, including a cancel naming X's query.
func TestControlActsOnSenderLink(t *testing.T) {
	digest := func(gen uint64) []byte {
		d := wire.NewDigest(gen)
		d.AddType(string(ctxtype.TemperatureCelsius))
		return wire.EncodeDigest(d)
	}
	cases := []struct {
		name string
		kind string
		body func(qid guid.GUID) any // nil: no body
		// acted reports whether the message took effect on Z's link.
		acted func(before, after senderState) bool
	}{
		{"leave", appLeave, nil,
			func(_, after senderState) bool { return !after.linked }},
		{"cancel", appCancel, func(qid guid.GUID) any { return cancelMsg{QueryID: qid} },
			func(before, after senderState) bool { return after == before }},
		{"event_batch_ack", appEventBatchAck, func(guid.GUID) any { return eventBatchAckMsg{Dropped: 9, QueueFree: -1} },
			func(_, after senderState) bool { return after.dropKnown && after.dropBase == 9 }},
		{"digest", appDigest, func(guid.GUID) any { return digestMsg{Child: true, Digest: digest(1)} },
			func(_, after senderState) bool { return after.child != nil }},
		{"coverage", appCoverage, func(guid.GUID) any { return coverageMsg{Coverage: "campus/z/moved", Name: "z"} },
			func(_, after senderState) bool { return after.coverage == "campus/z/moved" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pf := newPeerFixture(t, 8)
			defer pf.close()
			probe := sensor.NewTemperatureSensor("probe", location.Ref{}, 294, 2, 1, pf.clk)
			if err := pf.rng.AddEntity(probe); err != nil {
				t.Fatal(err)
			}
			pf.f.SetHierarchy(HierarchyConfig{SuperPeer: true})
			x := pf.addPeer(t, "campus/x")
			z := pf.addPeer(t, "campus/z")

			// X has the fabric serve a query, reports credit and files a
			// child digest.
			q := query.New(guid.New(guid.KindApplication), query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
			xml, err := q.Encode()
			if err != nil {
				t.Fatal(err)
			}
			pf.from(t, x, appQuery, queryMsg{QueryID: q.ID, XML: xml})
			pf.from(t, x, appEventBatchAck, eventBatchAckMsg{Dropped: 5, QueueFree: -1})
			pf.from(t, x, appDigest, digestMsg{Child: true, Digest: digest(1)})
			xBefore, zBefore := pf.stateOf(x), pf.stateOf(z)
			if xBefore.served != 1 || !xBefore.dropKnown || xBefore.child == nil {
				t.Fatalf("X's link not set up: %+v", xBefore)
			}

			if tc.body == nil {
				pf.f.deliver(overlay.Delivery{Origin: z.id(), AppKind: tc.kind})
			} else {
				pf.from(t, z, tc.kind, tc.body(q.ID))
			}
			if got := pf.stateOf(x); got != xBefore {
				t.Fatalf("a %s from Z changed X's link: %+v, was %+v", tc.kind, got, xBefore)
			}
			if got := pf.f.ServedQueries(); len(got) != 1 || got[0] != q.ID {
				t.Fatalf("a %s from Z changed the served queries: %v", tc.kind, got)
			}
			if zAfter := pf.stateOf(z); !tc.acted(zBefore, zAfter) {
				t.Fatalf("a %s from Z did not act on Z's link: %+v, was %+v", tc.kind, zAfter, zBefore)
			}
		})
	}
}
