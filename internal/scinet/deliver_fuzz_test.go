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
	appEventBatchAck, appInterest, appDigest, appInterestSync, appStats,
	appStatsResult, appLeave, fuzzTick,
}

const fuzzTick = "tick"

// fuzzTypes are the event and filter types fuzzed messages draw from ("" is
// the wildcard).
var fuzzTypes = []ctxtype.Type{ctxtype.TemperatureCelsius, "temperature", ctxtype.LocationPosition, ""}

// fuzzMsg builds one delivery from fake peer p out of op bytes: a
// well-formed message of kind most of the time, raw bytes as the payload
// otherwise. qids is the small pool of query ids the messages share, so
// replies, cancels and routed batches meet the queries they name.
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
		msg = coverageMsg{Origin: p, Coverage: "campus/p", Name: "p", Echo: b2&1 == 1}
	case appQuery:
		msg = queryMsg{Origin: p, QueryID: qid, XML: queryXML}
	case appQueryResult:
		res := queryResultMsg{QueryID: qid}
		if b2&1 == 1 {
			res.Error = "refused"
		}
		msg = res
	case appCancel:
		msg = cancelMsg{QueryID: qid, Origin: p}
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
		msg = eventBatchAckMsg{Origin: p, QueryAck: b2&1 == 1, Events: 1, Dropped: uint64(b1),
			DownstreamBy: map[guid.GUID]uint64{p: uint64(b2)}, QueueFree: -1}
	case appInterest:
		gen := uint64(b1 % 8)
		flts := []event.Filter{{Type: typ}}
		switch b2 % 3 {
		case 0:
			msg = interestMsg{Owner: p, Gen: gen, Full: true, Filters: flts}
		case 1:
			msg = interestMsg{Owner: p, Gen: gen, Prev: gen - 1, Add: flts}
		default:
			msg = interestMsg{Owner: p, Gen: gen, Prev: gen - 1, Del: flts}
		}
	case appDigest:
		if b2&1 == 1 {
			msg = digestMsg{Owner: p, Child: true, Remove: true}
			break
		}
		dig := wire.NewDigest(uint64(b1))
		dig.AddType(string(typ))
		msg = digestMsg{Owner: p, Child: true, Digest: wire.EncodeDigest(dig)}
	case appInterestSync:
		msg = interestSyncMsg{From: p}
	case appStats:
		msg = statsQueryMsg{Origin: p, Corr: qid}
	case appStatsResult:
		msg = statsResultMsg{Corr: qid, Name: "p"}
	case appLeave:
		msg = leaveMsg{Origin: p}
	}
	d.Payload, _ = json.Marshal(msg)
	return d
}

// FuzzFabricDeliver states the one-owner claim as an executable check: a
// fabric driven by an arbitrary sequence of messages from one peer — well
// formed or not — holds nothing for that peer once it is torn down: no
// link, no row in either routing snapshot, no tap, no served query or
// configuration, no timer armed to send it anything, and no goroutine left
// behind.
func FuzzFabricDeliver(f *testing.F) {
	f.Add(false, []byte{0, 0x40, 0, 6, 0x40, 0, 4, 0x40, 2, 1, 0x40, 1, 12, 0, 0, 5, 0x40, 0})
	f.Add(true, []byte{7, 0x40, 0, 4, 0x41, 0, 5, 0x40, 1, 3, 0x40, 1, 11, 0x40, 0})
	f.Add(false, []byte{1, 0x00, 3, 'x', 'y', 'z', 9, 0x40, 1, 10, 0x40, 0, 2, 0x40, 0})
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
		// Each step is (kind, form, param) and, for a raw payload (form
		// below 0x20), param%24 payload bytes after it.
		for step := 0; len(ops) >= 3 && step < 32; step++ {
			kind, b1, b2 := fuzzKinds[int(ops[0])%len(fuzzKinds)], ops[1], ops[2]
			n := 0
			if b1 < 0x20 {
				n = min(int(b2)%24, len(ops)-3)
			}
			if kind == fuzzTick {
				_ = probe.Tick()
			} else {
				pf.f.deliver(fuzzMsg(pf, p, kind, b1, b2, ops[3:3+n], qids, queryXML))
			}
			ops = ops[3+n:]
		}

		pf.f.peerGone(p)
		if pf.f.lookupLink(p) != nil {
			t.Fatal("the torn-down peer still has a link")
		}
		for _, e := range pf.f.interestSnapshot() {
			if e.owner == p {
				t.Fatal("the torn-down peer is still in the interest snapshot")
			}
		}
		if h := pf.f.hierSnap.Load(); h != nil {
			for _, l := range append(h.children, h.peers...) {
				if l.id == p {
					t.Fatal("the torn-down peer is still in the hierarchy snapshot")
				}
			}
		}
		if taps := pf.f.tapTypes(); len(taps) != 0 {
			t.Fatalf("taps %v survive the only interested peer", taps)
		}
		if served := pf.f.ServedQueries(); len(served) != 0 {
			t.Fatalf("queries %v still served for the torn-down peer", served)
		}
		if cfgs := pf.rng.Runtime().Active(); len(cfgs) != 0 || pf.rng.Registrar().IsLive(owner) {
			t.Fatalf("the peer's queries left %d configurations (proxy live: %v)",
				len(cfgs), pf.rng.Registrar().IsLive(owner))
		}
		// Nothing owed to the peer — result batches, acks, digests, relayed
		// batches — may still be armed to fire.
		sent := func() uint64 {
			return pf.f.BatchesForwarded.Value() + pf.f.BatchesRelayed.Value() +
				pf.f.AcksSent.Value() + pf.f.DigestUpdatesSent.Value()
		}
		before := sent()
		pf.clk.Advance(time.Minute)
		if got := sent() - before; got != 0 {
			t.Fatalf("%d messages left for the torn-down peer after its teardown", got)
		}
	})
}
