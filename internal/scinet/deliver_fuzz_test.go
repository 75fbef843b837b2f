package scinet

import (
	"encoding/json"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/location"
	"sci/internal/overlay"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/wire"
)

// fuzzKinds are the app kinds FuzzFabricDeliver drives a fabric with, plus
// fuzzTick: a local sensor reading, which streams results toward the peer
// for the queries it has the fabric serve.
var fuzzKinds = []string{
	appCoverage, appQuery, appQueryResult, appCancel, appEventBatch,
	appEventBatchAck, appInterest, appDigest, appStats, appStatsResult,
	appLeave, fuzzTick,
}

const fuzzTick = "tick"

// fuzzTypes are the event and filter types fuzzed messages draw from ("" is
// the wildcard).
var fuzzTypes = []ctxtype.Type{ctxtype.TemperatureCelsius, "temperature", ctxtype.LocationPosition, ""}

// fuzzMsg builds one delivery from sender p out of op bytes: a well-formed
// message of kind most of the time, raw bytes as the payload otherwise.
// qids is the small pool of query ids the messages share, so replies,
// cancels and routed batches meet the queries they name.
func fuzzMsg(pf *peerFixture, p guid.GUID, kind string, b1, b2 byte, raw []byte, qids []guid.GUID, queryXML []byte) overlay.Delivery {
	d := overlay.Delivery{Origin: p, AppKind: kind}
	if b1 < 0x20 {
		d.Payload = raw
		return d
	}
	qid := qids[int(b2)%len(qids)]
	typ := fuzzTypes[int(b2)%len(fuzzTypes)]
	var msg any
	switch kind {
	case appCoverage:
		msg = coverageMsg{Coverage: "campus/p", Name: "p", Echo: b2&1 == 1}
	case appQuery:
		msg = queryMsg{QueryID: qid, XML: queryXML}
	case appQueryResult:
		res := queryResultMsg{QueryID: qid}
		if b2&1 == 1 {
			res.Error = "refused"
		}
		msg = res
	case appCancel:
		msg = cancelMsg{QueryID: qid}
	case appEventBatch:
		events := makeEvents(1+int(b2)%3, pf.clk)
		for i := range events {
			events[i].Type = ctxtype.TemperatureCelsius
			if b2&2 == 0 {
				events[i].Range = p
			}
		}
		batch := &wire.NativeBatch{Events: events, Origin: p, Via: []guid.GUID{p}}
		if b1&1 == 1 {
			batch.Query = qid
		} else {
			batch.ID = guid.New(guid.KindEvent)
		}
		d.Batch = batch
		return d
	case appEventBatchAck:
		msg = eventBatchAckMsg{QueryAck: b2&1 == 1, Events: 1, Dropped: uint64(b1),
			DownstreamBy: map[guid.GUID]uint64{p: uint64(b2)}, QueueFree: -1}
	case appInterest:
		// Generations 0 (malformed) to 7, so stale and repeated ones come
		// up; a third of the announcements carry the empty set.
		var flts []event.Filter
		if b2%3 != 0 {
			flts = []event.Filter{{Type: typ}}
		}
		msg = interestMsg{Owner: p, Gen: uint64(b1 % 8), Filters: flts}
	case appDigest:
		if b2&1 == 1 {
			msg = digestMsg{Child: true, Remove: true}
			break
		}
		dig := wire.NewDigest(uint64(b1))
		dig.AddType(string(typ))
		msg = digestMsg{Child: true, Digest: wire.EncodeDigest(dig)}
	case appStats:
		msg = statsQueryMsg{Corr: qid}
	case appStatsResult:
		msg = statsResultMsg{Corr: qid, Name: "p"}
	case appLeave:
		return d // no body: the envelope names the departing fabric
	}
	d.Payload, _ = json.Marshal(msg)
	return d
}

// FuzzFabricDeliver states the one-owner claim as an executable check: a
// fabric driven by an arbitrary sequence of messages — well formed or not —
// from a known peer, from a fabric it never heard of, and from itself (the
// envelope's sender is fuzzed apart from the body) holds nothing for
// either remote sender once both are torn down: no link, no row in either
// routing snapshot, no tap, no served query or configuration, no timer
// armed to send anything, and no goroutine left behind. A message naming
// the fabric itself as sender changes nothing.
func FuzzFabricDeliver(f *testing.F) {
	f.Add(false, []byte{0, 0, 0x40, 0, 6, 0, 0x40, 1, 4, 0, 0x40, 2, 1, 0, 0x40, 1, 11, 0, 0, 0, 5, 0, 0x40, 0})
	f.Add(true, []byte{7, 0, 0x40, 0, 4, 0, 0x41, 0, 5, 0, 0x40, 1, 3, 0, 0x40, 1, 10, 0, 0x40, 0})
	f.Add(false, []byte{1, 0, 0x00, 3, 'x', 'y', 'z', 8, 0, 0x40, 1, 9, 0, 0x40, 0, 2, 0, 0x40, 0})
	// Other senders, and interests at generations 3, then a stale 1, then 0.
	f.Add(false, []byte{0, 1, 0x40, 1, 6, 2, 0x40, 1, 6, 0, 0x43, 1, 6, 0, 0x41, 0, 6, 0, 0x40, 2, 10, 1, 0x40, 0, 5, 2, 0x40, 0, 1, 1, 0x40, 0})
	owner := guid.New(guid.KindApplication)
	queryXML, err := query.New(owner, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe).Encode()
	if err != nil {
		f.Fatal(err)
	}
	qids := []guid.GUID{guid.New(guid.KindQuery), guid.New(guid.KindQuery), guid.New(guid.KindQuery)}
	f.Fuzz(func(t *testing.T, super bool, ops []byte) {
		defer leak.Check(t)()
		pf := newPeerFixture(t, 4)
		defer pf.close()
		probe := sensor.NewTemperatureSensor("probe", location.Ref{}, 294, 2, 1, pf.clk)
		if err := pf.rng.AddEntity(probe); err != nil {
			t.Fatal(err)
		}
		if super {
			pf.f.SetHierarchy(HierarchyConfig{SuperPeer: true})
		}
		p := pf.addPeer(t, "").id()
		// The known peer, a fabric the network does not hold, and the
		// fabric itself.
		senders := []guid.GUID{p, guid.New(guid.KindServer), pf.f.NodeID()}
		// Each step is (kind, sender, form, param) and, for a raw payload
		// (form below 0x20), param%24 payload bytes after it.
		for step := 0; len(ops) >= 4 && step < 32; step++ {
			kind, from, b1, b2 := fuzzKinds[int(ops[0])%len(fuzzKinds)], senders[int(ops[1])%len(senders)], ops[2], ops[3]
			n := 0
			if b1 < 0x20 {
				n = min(int(b2)%24, len(ops)-4)
			}
			if kind == fuzzTick {
				_ = probe.Tick()
			} else {
				pf.f.deliver(fuzzMsg(pf, from, kind, b1, b2, ops[4:4+n], qids, queryXML))
			}
			ops = ops[4+n:]
		}

		for _, s := range senders[:2] {
			pf.f.peerGone(s)
		}
		for i, s := range senders {
			if pf.f.lookupLink(s) != nil {
				t.Fatalf("sender %d still has a link", i)
			}
			for _, e := range pf.f.interestSnapshot() {
				if e.owner == s {
					t.Fatalf("sender %d is still in the interest snapshot", i)
				}
			}
			if h := pf.f.hierSnap.Load(); h != nil {
				for _, l := range append(h.children, h.peers...) {
					if l.id == s {
						t.Fatalf("sender %d is still in the hierarchy snapshot", i)
					}
				}
			}
		}
		if taps := pf.f.tapTypes(); len(taps) != 0 {
			t.Fatalf("taps %v survive the only interested peer", taps)
		}
		if served := pf.f.ServedQueries(); len(served) != 0 {
			t.Fatalf("queries %v still served for the torn-down senders", served)
		}
		if cfgs := pf.rng.Runtime().Active(); len(cfgs) != 0 || pf.rng.Registrar().IsLive(owner) {
			t.Fatalf("the senders' queries left %d configurations (proxy live: %v)",
				len(cfgs), pf.rng.Registrar().IsLive(owner))
		}
		// Nothing owed to either sender — result batches, acks, digests,
		// relayed batches — may still be armed to fire.
		sent := func() uint64 {
			return pf.f.BatchesForwarded.Value() + pf.f.BatchesRelayed.Value() +
				pf.f.AcksSent.Value() + pf.f.DigestUpdatesSent.Value()
		}
		before := sent()
		pf.clk.Advance(time.Minute)
		if got := sent() - before; got != 0 {
			t.Fatalf("%d messages left for the torn-down senders after their teardown", got)
		}
	})
}
