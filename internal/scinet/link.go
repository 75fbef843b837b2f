package scinet

import (
	"fmt"
	"sync"

	"sci/internal/clock"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/wire"
)

// link is everything a Fabric knows about one remote fabric: what it
// announced (coverage, interests, digests), what this fabric owes it
// (the last digest sent, coalesced acks, the relay backlog, digest
// pacing), and the forwarded queries between the two. A link is created on
// first contact and lives in Fabric.links until peerGone detaches it (or
// Close detaches every link); close then retires it in one step.
//
// link.mu is a leaf lock: nothing runs under it that sends, calls a flow
// entry point (Note, AddAll, Flush, Touch, Stop, Discard), the mediator or
// the overlay, or takes Fabric.mu. Aggregate reads over every link (the
// interest snapshot, tap demand, digest merges) hold Fabric.mu and take one
// link's lock at a time, never two.
//
//lint:lockorder scinet.Fabric.mu < scinet.link.mu aggregate reads take one link's lock at a time under f.mu; link.mu is a leaf and takes nothing
type link struct {
	id guid.GUID

	mu sync.Mutex
	// closed is set by close. Only code holding a link pointer taken
	// before the detach can see it set: a link reachable through
	// Fabric.links is never closed.
	closed bool     // guarded by mu
	row    routeRow // guarded by mu

	interestGen uint64 // guarded by mu; last interest generation applied from this fabric

	digestGen  uint64                // guarded by mu; last digest generation it announced
	digestSent *wire.Digest          // guarded by mu; last digest shipped to it (suppression)
	digestCoal *flow.UpdateCoalescer // guarded by mu; digest update pacing toward it

	dropBase  uint64             // guarded by mu; its last combined (drops+downstream) fan-out credit report
	dropKnown bool               // guarded by mu; dropBase holds a report
	fack      *flow.AckCoalescer // guarded by mu; fan-path credit report owed to it
	qack      *flow.AckCoalescer // guarded by mu; routed-query credit report owed to it

	relayPending []*wire.NativeBatch // guarded by mu; relayed batches held back while throttled
	relayTimer   clock.Timer         // guarded by mu; paces the relay backlog's drain

	out    map[guid.GUID]*outQuery    // guarded by mu; queries this fabric forwarded to it
	served map[guid.GUID]*servedQuery // guarded by mu; queries it forwarded to this fabric
}

// routeRow is the part of a link the fabric-wide views read: aggregate
// reads copy it out whole under the link's lock.
type routeRow struct {
	coverage  *coverageMsg   // nil until it announced its coverage
	interests []event.Filter // its announced cross-range interests (nil = none)
	child     *wire.Digest   // its subtree digest while it is a hierarchy child
	peer      *wire.Digest   // its subtree digest while it is a peer super-peer
	childFwd  uint64         // batches forwarded into its subtree
}

// outQuery is the origin side of one query forwarded to the link's fabric:
// the Submit waiting for the answer (reply, nil once Submit returned) and
// the consumer of the routed result events (caa, nil if none).
type outQuery struct {
	reply chan queryReply
	caa   *entity.CAA
}

// queryReply is what a waiting Submit receives: the serving fabric's answer,
// or the reason the link closed before it came.
type queryReply struct {
	msg queryResultMsg
	err error
}

// servedQuery is the serving side of one query the link's fabric forwarded
// here.
type servedQuery struct {
	owner guid.GUID       // remote CAA the proxy stands in for
	cfg   guid.GUID       // instantiated configuration (nil while deferred)
	q     *flow.Coalescer // result coalescer toward the origin (nil until first use)
}

// errPeerDeparted fails the Submits still waiting on a fabric that left.
var errPeerDeparted = fmt.Errorf("%w: serving range departed", ErrNoCoveringRange)

// linkLocked returns the link to id, creating it on first contact. Callers
// hold f.mu.
func (f *Fabric) linkLocked(id guid.GUID) *link {
	l := f.links[id]
	if l == nil {
		l = &link{id: id, out: make(map[guid.GUID]*outQuery), served: make(map[guid.GUID]*servedQuery)}
		f.links[id] = l
	}
	return l
}

// lookupLink returns the link to id, or nil when this fabric holds none.
func (f *Fabric) lookupLink(id guid.GUID) *link {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.links[id]
}

// routing copies out the link's routing row.
func (l *link) routing() routeRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.row
}

// reply hands a serving fabric's answer to the Submit waiting for it,
// reporting whether one was.
func (l *link) reply(msg queryResultMsg) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	oq := l.out[msg.QueryID]
	if oq == nil || oq.reply == nil {
		return false
	}
	select {
	case oq.reply <- queryReply{msg: msg}:
	default:
	}
	return true
}

// endQuery settles a Submit: on success the consumer stays registered (if
// there is one) and only the waiter goes; on failure both go.
func (l *link) endQuery(qid guid.GUID, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oq := l.out[qid]
	switch {
	case oq == nil:
	case ok && oq.caa != nil:
		oq.reply = nil
	default:
		delete(l.out, qid)
	}
}

// consumer returns the application consuming the routed results of a query
// forwarded to this link's fabric (nil if none).
func (l *link) consumer(qid guid.GUID) *entity.CAA {
	l.mu.Lock()
	defer l.mu.Unlock()
	if oq := l.out[qid]; oq != nil {
		return oq.caa
	}
	return nil
}

// resultQueues lists the result coalescers of the queries served for this
// link's fabric.
func (l *link) resultQueues() []*flow.Coalescer {
	l.mu.Lock()
	defer l.mu.Unlock()
	var qs []*flow.Coalescer
	for _, sq := range l.served {
		if sq.q != nil {
			qs = append(qs, sq.q)
		}
	}
	return qs
}

// close retires a detached link: Submits still waiting on its fabric fail
// with err, and every coalescer, ack coalescer, digest pacer and relay
// timer it owns stops. It returns the ids of the queries served for the
// fabric, sorted, for the caller to dropServed.
func (l *link) close(err error) []guid.GUID {
	l.mu.Lock()
	l.closed = true
	for _, oq := range l.out {
		if oq.reply != nil {
			select {
			case oq.reply <- queryReply{err: err}:
			default:
			}
		}
	}
	l.out = nil
	served := make([]guid.GUID, 0, len(l.served))
	var queues []*flow.Coalescer
	for qid, sq := range l.served {
		served = append(served, qid)
		if sq.q != nil {
			queues = append(queues, sq.q)
		}
	}
	acks := []*flow.AckCoalescer{l.fack, l.qack}
	dcoal := l.digestCoal
	l.relayPending = nil
	if l.relayTimer != nil {
		l.relayTimer.Stop()
		l.relayTimer = nil
	}
	l.mu.Unlock()

	for _, a := range acks {
		if a != nil {
			a.Stop()
		}
	}
	if dcoal != nil {
		dcoal.Stop()
	}
	for _, q := range queues {
		q.Discard()
	}
	guid.Sort(served)
	return served
}

// peerGone tears down everything this fabric knows about a departed fabric
// (announced leave, or the overlay forgetting an unresponsive node): the
// link is detached and the routing snapshots refreshed under f.mu, the link
// closes outside it (failing Submits waiting on the fabric, stopping its
// coalescers and timers), the queries it originated are released with their
// proxy CAAs, and the fleet-wide follow-ups run — digest announcements if a
// subtree vanished, then tap reconciliation.
func (f *Fabric) peerGone(peer guid.GUID) {
	f.mu.Lock()
	l := f.links[peer]
	if f.closed || l == nil {
		f.mu.Unlock()
		return
	}
	delete(f.links, peer)
	r := l.routing()
	if len(r.interests) > 0 {
		f.refreshInterestSnapLocked()
	}
	hierChanged := r.child != nil || r.peer != nil
	if f.hierSet && peer == f.hier.Parent && f.upDigest != nil {
		// The parent's downward summary died with it: route upward
		// conservatively until a parent speaks again.
		f.upDigest = nil
		hierChanged = true
	}
	if hierChanged {
		f.refreshHierSnapLocked()
	}
	// The departed fabric's downstream account (downObs) is deliberately
	// retained: figures reported to the remaining peers must stay
	// monotone, and max-merge makes a stale account harmless.
	f.mu.Unlock()

	for _, qid := range l.close(errPeerDeparted) {
		f.dropServed(l, qid)
	}
	if hierChanged {
		// Remaining links' summaries just changed (a subtree vanished).
		f.touchDigestAnnouncements()
	}
	f.reconcileTaps()
}
