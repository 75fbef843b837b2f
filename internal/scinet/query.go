package scinet

// Forwarded queries: Submit routes a query to the Range covering its
// area, the serving fabric runs it behind a proxy CAA and streams the
// results back through a per-query coalescer.

import (
	"encoding/json"
	"fmt"

	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/overlay"
	"sci/internal/query"
	"sci/internal/wire"
)

type queryMsg struct {
	QueryID guid.GUID `json:"query_id"`
	XML     []byte    `json:"xml"`
}

type queryResultMsg struct {
	QueryID       guid.GUID `json:"query_id"`
	Deferred      bool      `json:"deferred,omitempty"`
	Configuration guid.GUID `json:"configuration,omitzero"`
	Provider      guid.GUID `json:"provider,omitzero"`
	Error         string    `json:"error,omitempty"`
}

type cancelMsg struct {
	QueryID guid.GUID `json:"query_id"`
}

// Result mirrors the answer to a forwarded subscription query.
type Result struct {
	QueryID       guid.GUID
	Deferred      bool
	Configuration guid.GUID
	Provider      guid.GUID
}

// Submit routes a query to the Range covering its Where clause. Queries
// whose area this Range covers (or with no explicit area) execute locally.
// For remote subscription queries, owner receives the routed result events.
func (f *Fabric) Submit(q query.Query, owner *entity.CAA) (*Result, error) {
	target, remote := f.routeTarget(q)
	if !remote {
		res, err := f.rng.Submit(q)
		if err != nil {
			return nil, err
		}
		return &Result{
			QueryID:       q.ID,
			Deferred:      res.Deferred,
			Configuration: res.Configuration,
			Provider:      res.Provider,
		}, nil
	}

	xmlData, err := q.Encode()
	if err != nil {
		return nil, err
	}

	// The query lives on the target's link: only the target may answer it,
	// and the link's close fails the wait at once if the target departs.
	reply := make(chan queryReply, 1)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	l := f.linkLocked(target)
	l.mu.Lock()
	l.out[q.ID] = &outQuery{reply: reply, caa: owner}
	l.mu.Unlock()
	f.mu.Unlock()

	if err := f.sendMsg(target, appQuery, queryMsg{QueryID: q.ID, XML: xmlData}); err != nil {
		l.endQuery(q.ID, false)
		return nil, err
	}
	select {
	case r := <-reply:
		err := r.err
		if err == nil && r.msg.Error != "" {
			err = fmt.Errorf("scinet: remote range: %s", r.msg.Error)
		}
		l.endQuery(q.ID, err == nil)
		if err != nil {
			return nil, err
		}
		return &Result{
			QueryID:       q.ID,
			Deferred:      r.msg.Deferred,
			Configuration: r.msg.Configuration,
			Provider:      r.msg.Provider,
		}, nil
	case <-f.clk.After(RequestTimeout):
		// The consumer entry must not outlive the failed round trip: an
		// abandoned entry would leak and keep routing stray events to an
		// application that was told its query failed. The serving side may
		// have succeeded (its reply merely late or lost), so withdraw the
		// query there too — otherwise it would keep a configuration, a
		// proxy CAA and a coalescer streaming events nobody receives.
		l.endQuery(q.ID, false)
		f.sendCancel(target, q.ID)
		return nil, ErrTimeout
	}
}

// sendCancel withdraws a forwarded query at its serving fabric.
func (f *Fabric) sendCancel(target, qid guid.GUID) {
	_ = f.sendMsg(target, appCancel, cancelMsg{QueryID: qid})
}

// routeTarget decides where a query executes: locally, or at the fabric
// node covering its explicit Where path.
func (f *Fabric) routeTarget(q query.Query) (guid.GUID, bool) {
	p := q.Where.Explicit.Path
	if p == "" {
		return guid.Nil, false
	}
	if own := f.rng.Coverage(); own != "" && own.Contains(p) {
		return guid.Nil, false
	}
	target, ok := f.CoveringNode(p)
	if !ok || target == f.node.ID() {
		return guid.Nil, false
	}
	return target, true
}

// handleRemoteQuery executes a forwarded query against the local Range,
// registering a proxy CAA that routes result events back to the origin
// through the per-peer outbound coalescer.
func (f *Fabric) handleRemoteQuery(d overlay.Delivery) {
	var msg queryMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	reply := queryResultMsg{QueryID: msg.QueryID}

	q, err := query.Decode(msg.XML)
	if err != nil {
		reply.Error = err.Error()
		_ = f.sendMsg(d.Origin, appQueryResult, reply)
		return
	}
	// Stand-in application for the remote owner: whole delivery runs it
	// consumes are coalesced and sent back to the origin tagged with the
	// query id.
	origin := d.Origin
	qid := msg.QueryID
	proxy := entity.NewRemoteBatchCAA(q.Owner, "scinet-proxy", func(events []event.Event) {
		f.sendQueryEvents(origin, qid, events)
	}, f.clk)
	if err := f.rng.AddApplication(proxy); err != nil {
		// A repeat query from an already-registered owner re-registers
		// silently (the Registrar renews, the profile overwrites), so any
		// error here is a real failure — range closed, rejected profile —
		// and must reach the origin instead of being swallowed: a Submit
		// against a dead registration could never deliver.
		reply.Error = err.Error()
		_ = f.sendMsg(origin, appQueryResult, reply)
		return
	}
	f.mu.Lock()
	if f.closed {
		// Raced with Close after the proxy registered: undo the
		// registration (unless another served query still shares the owner)
		// so the closing fabric leaves no proxy behind in the Range.
		inUse := f.ownerRefs[q.Owner] > 0
		f.mu.Unlock()
		if !inUse {
			_ = f.rng.RemoveEntity(q.Owner)
		}
		reply.Error = ErrClosed.Error()
		_ = f.sendMsg(origin, appQueryResult, reply)
		return
	}
	f.ownerRefs[q.Owner]++
	l := f.linkLocked(origin)
	l.mu.Lock()
	sq := &servedQuery{owner: q.Owner}
	prev := l.served[qid]
	l.served[qid] = sq
	l.mu.Unlock()
	f.mu.Unlock()
	// The origin repeated a query id: the new query replaces the old one,
	// which must not linger without a record to tear it down by.
	f.releaseServed(prev)

	res, err := f.rng.Submit(q)
	if err != nil {
		reply.Error = err.Error()
		// The failed query must not leave its proxy behind: release the
		// serving-side record, which removes the proxy CAA when this was
		// the owner's last live query.
		f.dropServed(l, qid)
	} else {
		reply.Deferred = res.Deferred
		reply.Configuration = res.Configuration
		reply.Provider = res.Provider
		l.mu.Lock()
		live := l.served[qid] == sq
		if live {
			sq.cfg = res.Configuration
		}
		l.mu.Unlock()
		if !live && !res.Configuration.IsNil() {
			// The origin departed (or the fabric closed) while Submit was
			// instantiating: the served record — the only teardown handle —
			// is already gone, so the fresh configuration must die here or
			// it would run forever feeding a departed peer.
			_ = f.rng.Runtime().Teardown(res.Configuration)
		}
	}
	_ = f.sendMsg(origin, appQueryResult, reply)
}

// dropServed releases one query served for l's fabric: its configuration is
// torn down, its result coalescer discarded, and — when this was the remote
// owner's last live query — the shared proxy CAA is removed from the Range
// so proxies never accumulate.
func (f *Fabric) dropServed(l *link, qid guid.GUID) {
	l.mu.Lock()
	sq := l.served[qid]
	delete(l.served, qid)
	l.mu.Unlock()
	f.releaseServed(sq)
}

// releaseServed releases a served-query record already removed from its
// link (nil: nothing to release). Unreachable from the link, the record is
// no longer written, so its fields are read without the link's lock.
func (f *Fabric) releaseServed(sq *servedQuery) {
	if sq == nil {
		return
	}
	f.mu.Lock()
	f.ownerRefs[sq.owner]--
	last := f.ownerRefs[sq.owner] <= 0
	if last {
		delete(f.ownerRefs, sq.owner)
	}
	f.mu.Unlock()

	if sq.q != nil {
		sq.q.Discard()
	}
	if !sq.cfg.IsNil() {
		_ = f.rng.Runtime().Teardown(sq.cfg)
	}
	if last {
		_ = f.rng.RemoveEntity(sq.owner)
	}
}

// ServedQueries returns the ids of forwarded queries this fabric currently
// serves, sorted (diagnostics and leak tests).
func (f *Fabric) ServedQueries() []guid.GUID {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []guid.GUID
	for _, l := range f.links {
		l.mu.Lock()
		for qid := range l.served {
			out = append(out, qid)
		}
		l.mu.Unlock()
	}
	guid.Sort(out)
	return out
}

// sendQueryEvents sends a run of result events for one forwarded query
// back to its origin fabric through the per-(peer, query) coalescer.
func (f *Fabric) sendQueryEvents(to, qid guid.GUID, events []event.Event) {
	if q := f.queueFor(to, qid); q != nil {
		q.AddAll(events)
	}
}

// sendQueryBatch ships one coalescer chunk as a scinet.event_batch
// message. The coalescer never writes a chunk it has handed over
// (flow.Config.Send), so the batch keeps it without a copy.
func (f *Fabric) sendQueryBatch(to, qid guid.GUID, events []event.Event) {
	if f.node.Send(to, appEventBatch, nil, &wire.NativeBatch{Events: events, Origin: f.node.ID(), Query: qid}) != nil {
		f.ForwardFailures.Add(uint64(len(events)))
		return
	}
	f.BatchesForwarded.Inc()
	f.EventsForwarded.Add(uint64(len(events)))
}

// queueFor returns the result coalescer of a query served for the fabric
// to, creating it on first use (nil once the query or its link is gone).
// Like the fan-out queue it reports into the Range's shared flow stats, so
// SCINET backpressure reads out of the same remote.backpressure.* gauges as
// the Range Service's.
func (f *Fabric) queueFor(to, qid guid.GUID) *flow.Coalescer {
	l := f.lookupLink(to)
	if l == nil {
		return nil
	}
	cfg := flow.Config{
		Clock:    f.clk,
		MaxBatch: f.maxBatch,
		MaxDelay: f.maxDelay,
		Fair:     f.rng.FairFlush(),
		Stats:    f.rng.FlowStats(),
		Send:     func(batch []event.Event) { f.sendQueryBatch(to, qid, batch) },
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sq := l.served[qid]
	if sq == nil {
		return nil
	}
	if sq.q == nil {
		sq.q = flow.New(cfg)
	}
	return sq.q
}
