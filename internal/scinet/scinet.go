// Package scinet binds Ranges into the SCINET: the upper layer of the SCI
// architecture (paper, Fig 1), "a network overlay of partially connected
// nodes ... concerned with managing interactions that take place between
// two or more ranges in order to provide appropriate contextual
// information".
//
// Each Range's Context Server gets a Fabric: an overlay node plus the
// inter-range protocol. Ranges announce the hierarchical area they cover
// ("campus/lt/l10"); a query whose Where clause names an area covered by
// another Range is forwarded to that Range's Context Server — exactly the
// CAPA scenario's hop from the lift-lobby Range to the Level Ten Range —
// and the resulting context events travel back to the querying
// application on direct links. The overlay supplies membership and GUID
// addressing; every fabric-to-fabric message goes one hop, straight to a
// peer the fabric already knows (overlay.Node.Send), so a dead peer shows
// up as a failed send and peer teardown, never as a delivery elsewhere.
//
// The sender of every control message is the envelope's
// (overlay.Delivery.Origin): no body names it, and a handler acts only on
// the link of the fabric the message came from. Each body has one form
// (testdata/golden holds one of each shape). An interest announcement
// names its owner, who is not always its sender: relays re-gossip it.
//
// # Cross-range fan-out
//
// Beyond per-query forwarding, fabrics exchange published events directly.
// A Range announces cross-range interests (event filters) to its peers,
// always as its whole set, stamped with that set's generation: a receiver
// keeps only the newest generation per owner, so a lost or reordered
// announcement is healed by the next one, and an empty set withdraws the
// entry. Each peer taps its own Event Mediator through a batch
// subscription and forwards matching publishes as coalesced
// scinet.event_batch payloads — one message per BatchMaxEvents events per
// interested peer, not one per event. The receiving fabric hands a whole
// batch to its Event Mediator's batched dispatch path without copying it,
// and re-forwards it to interested peers the sender did not know about.
//
// Loop suppression: every forwarded batch is stamped with the origin
// fabric's id, a batch id, and a hop set (Via) naming every fabric already
// covered — the origin plus all direct recipients, extended by each relay.
// A relay only forwards to interested peers outside the hop set; a batch
// whose origin is the receiving fabric (or whose events carry the local
// Range's stamp) is dropped as an echo; and a bounded per-fabric window of
// recently ingested batch ids suppresses the duplicates hop sets cannot
// (two relays covering the same gap in a sender's knowledge). An event
// published in Range A and relayed via B to C is therefore delivered
// exactly once and never returns to A, even on cyclic topologies.
//
// # Hierarchical interest routing
//
// Flat interest gossip costs O(fleet²) messages per interest change and
// O(fleet) interest state per fabric. Fleets beyond a few dozen fabrics
// attach to a super-peer hierarchy (SetHierarchy, with a tree the caller
// plans): a leaf announces its interests only to its
// super-peer, as a compact digest (coarse ctxtype prefixes plus a Bloom
// filter — wire.Digest) rather than as filters; a super-peer aggregates
// its children's digests with its own interests and announces the summary
// upward and level-wise to its peer super-peers, and sends each child a
// downward digest of the rest of the fleet. Event batches follow the
// links whose digest admits them. Digests only over-approximate —
// coarsening, Bloom collisions and prefix overflow all widen, never
// narrow — so routing tolerates false positives (a batch that crosses a
// hop for nobody is counted as spillover and dropped there) and never
// loses a delivery to a false negative. Digest updates are rate-limited
// per link by a flow.UpdateCoalescer, suppressed when unchanged, and
// generation-stamped against reordering; staleness (an unknown digest)
// admits everything. The exactly-once machinery above — hop sets,
// batch-id dedup, echo drops — applies unchanged, and every hierarchy hop
// keeps the same credit acks and relay shedding as a flat link. See
// hierarchy.go.
//
// # Per-peer state
//
// Everything a fabric knows about one remote fabric — its coverage,
// interests and digests, the interest and digest generations it announced,
// the last digest sent to it, the ack coalescers and relay backlog owed to
// it, and the forwarded queries between the two — lives on one link
// (link.go), created on first contact; a control message reaches only the
// link of its sender. Peer teardown (an announced leave, or a send the
// transport refused) detaches the link and closes it in one step: pending
// Submits to the peer fail with ErrNoCoveringRange, its coalescers and
// timers stop, and the queries it originated are released. The Fabric
// itself keeps only the links table, the fleet-wide tables (taps,
// downstream credit accounts, the duplicate window) and the two
// copy-on-write routing snapshots.
package scinet

import (
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/metrics"
	"sci/internal/overlay"
	"sci/internal/registry"
	"sci/internal/server"
	"sci/internal/transport"
	"sci/internal/wire"
)

// App kinds of the fabric-to-fabric payloads.
const (
	appCoverage    = "scinet.coverage"
	appQuery       = "scinet.query"
	appQueryResult = "scinet.query_result"
	// appCancel withdraws a forwarded query (the origin timed out or no
	// longer wants it), so the serving fabric releases its record, proxy
	// and configuration instead of streaming to nobody.
	appCancel = "scinet.cancel"
	// appEventBatch carries a run of events from one fabric to a peer it
	// knows in the message's batch (overlay.Delivery.Batch), stamped in the
	// batch header. With Query set it carries routed results for one
	// forwarded query; otherwise it is a cross-range fan-out batch stamped
	// for loop suppression: Origin is the publishing fabric, Via names every
	// fabric already covered (origin, direct recipients, and relays'
	// additions), and ID names the batch for duplicate suppression — relays
	// preserve it, and a receiver ingests each id at most once, since the
	// hop set alone cannot cover every race (two relays that each know an
	// interested fabric absent from Via would both forward to it).
	appEventBatch = "scinet.event_batch"
	// appEventBatchAck is the scinet.event_batch reply hint: the receiving
	// fabric reports its flow credit (cumulative dispatch drops) so the
	// sender's coalescer can throttle while the receiver is overloaded.
	appEventBatchAck = "scinet.event_batch_ack"
	// appInterest announces (and re-gossips) a fabric's cross-range event
	// interests.
	appInterest = "scinet.interest"
	// appLeave announces a clean fabric departure so peers tear down
	// per-peer state (proxies, interests, coalescers) immediately. It
	// carries no body: the envelope names the departing fabric.
	appLeave = "scinet.leave"
	// appDigest belongs to the hierarchical interest layer; see
	// hierarchy.go.
	// appStats / appStatsResult carry the fleet-wide dispatch.stats rollup.
	appStats       = "scinet.stats"
	appStatsResult = "scinet.stats_result"
)

type coverageMsg struct {
	Coverage location.Path `json:"coverage"`
	Name     string        `json:"name"`
	// Echo requests the receiver to send its own coverage back (anti-
	// entropy on join).
	Echo bool `json:"echo,omitempty"`
}

type statsQueryMsg struct {
	Corr guid.GUID `json:"corr"`
}

type statsResultMsg struct {
	Corr  guid.GUID          `json:"corr"`
	Name  string             `json:"name"`
	Stats map[string]float64 `json:"stats"`
}

// RangeStats is one Range's dispatch.stats snapshot inside a fleet rollup.
type RangeStats struct {
	// Node is the answering fabric's overlay node id.
	Node guid.GUID
	// Name is the Range's label.
	Name string
	// Stats is the Range's dispatch.stats map (see server.Range.StatsMap).
	Stats map[string]float64
}

// FleetStats aggregates dispatch.stats across every Range of a SCINET that
// answered within the collection window.
type FleetStats struct {
	// Ranges counts the Ranges included (answering peers plus the caller).
	Ranges int
	// Totals sums each counter across the fleet; index_hit_ratio is
	// recomputed from the summed index_hits / residual_scanned rather than
	// summed (a ratio of sums, not a sum of ratios).
	Totals map[string]float64
	// PerRange holds each contributing Range's snapshot, sorted by name.
	PerRange []RangeStats
}

// Errors.
var (
	ErrNoCoveringRange = errors.New("scinet: no range covers the queried area")
	ErrTimeout         = errors.New("scinet: request timed out")
	ErrClosed          = errors.New("scinet: fabric closed")
)

// RequestTimeout bounds forwarded-query round trips.
const RequestTimeout = 5 * time.Second

// Fabric is one Range's presence in the SCINET.
type Fabric struct {
	rng  *server.Range
	node *overlay.Node
	clk  clock.Clock

	maxBatch int
	maxDelay time.Duration

	// Flow-layer callbacks (Coalescer send paths) run while the coalescer
	// holds its flush lock and may take f.mu downstream, so no flow entry
	// point (Flush, Touch, Stop, Discard) may ever be called with f.mu
	// held — collect under the lock, call after unlocking. f.mu guards the
	// links table and the fleet-wide state; each link guards its own.
	//
	//lint:lockorder flow.Coalescer.sendMu < scinet.Fabric.mu send callbacks run under the flush lock and take f.mu; flushing under f.mu inverts it
	mu        sync.Mutex
	links     map[guid.GUID]*link               // guarded by mu; remote fabric → everything known about it (link.go)
	ownerRefs map[guid.GUID]int                 // guarded by mu; remote owner → live served queries
	local     []localInterest                   // guarded by mu; this fabric's own interests, refcounted
	remote    map[guid.GUID]mediator.Record     // guarded by mu; live SubscribeRemote subscriptions by id
	unwatch   func()                            // stops the registrar departure watch (ownerDeparted)
	taps      map[ctxtype.Type]guid.GUID        // guarded by mu; mediator taps by tap type (Wildcard key = residual tap)
	fan       *flow.Coalescer                   // outbound coalescer, fan-out traffic
	downObs   map[guid.GUID]uint64              // guarded by mu; downstream accounts: observing fabric → max cumulative drops seen
	statsWait map[guid.GUID]chan statsResultMsg // guarded by mu
	seen      guid.Set                          // guarded by mu; recently ingested batch ids (duplicate window)
	seenRing  []guid.GUID                       // guarded by mu; eviction order for seen, bounded at seenWindow
	seenPos   int                               // guarded by mu
	closed    bool                              // guarded by mu

	// Hierarchical interest routing state (hierarchy.go).
	hier        HierarchyConfig // guarded by mu
	hierSet     bool            // guarded by mu; SetHierarchy was called
	hierOn      bool            // guarded by mu; hierarchical routing latched active
	hierGen     uint64          // guarded by mu; generation stamp of outgoing digests
	hierStatsOn bool            // guarded by mu; stats source registered
	upDigest    *wire.Digest    // guarded by mu; parent's downward rest-of-fleet digest

	announceGen uint64 // guarded by mu; generation of the announced interest set, starts at 1 (zero is malformed on the wire)

	// interestSnap is the lock-free copy-on-write view of interests that
	// fanOut and relay match against; rebuilt under mu whenever the live
	// table changes.
	interestSnap atomic.Pointer[[]interestEntry]
	// hierSnap is the lock-free hierarchy routing view (nil until
	// SetHierarchy); rebuilt under mu whenever hierarchy state changes.
	hierSnap atomic.Pointer[hierView]

	// BatchesForwarded / EventsForwarded count the fan-out and routed-query
	// batches this fabric originated and handed to the transport (one batch
	// per message per peer) and the events they carried.
	BatchesForwarded metrics.Counter
	EventsForwarded  metrics.Counter
	// ForwardFailures counts the events carried by fan-out, relayed and
	// routed-query batches the transport refused (one count per event per
	// refused send). A refused send also tears the peer down, so a dead
	// next hop shows here instead of as silent loss; Range.StatsMap reports
	// it as remote.forward_failures.
	ForwardFailures metrics.Counter
	// BatchesIngested / EventsIngested count cross-range batches accepted
	// into the local Range's dispatch path.
	BatchesIngested metrics.Counter
	EventsIngested  metrics.Counter
	// BatchesRelayed counts batches re-forwarded to interested peers the
	// sender's hop set did not cover.
	BatchesRelayed metrics.Counter
	// EchoesDropped counts batches (or events within them) that arrived
	// back at their origin. Batches travel on direct links and relays
	// exclude the origin, so only a misbehaving peer produces one.
	EchoesDropped metrics.Counter
	// DuplicatesDropped counts batches whose id was already ingested — two
	// relays covering the same gap in a sender's hop set.
	DuplicatesDropped metrics.Counter
	// BatchesRelayShed counts relayed batches evicted from a throttled
	// peer's bounded relay backlog instead of being forwarded at line rate.
	BatchesRelayShed metrics.Counter
	// AcksSent counts flow-credit ack frames this fabric put on the wire
	// (fan-path and routed-query alike).
	AcksSent metrics.Counter
	// SpilloverDropped counts hierarchy-routed batches that crossed this
	// hop for nobody — digest false positives (matched no local filter and
	// relayed nowhere). The tolerated cost of summarized routing.
	SpilloverDropped metrics.Counter
	// DigestUpdatesSent counts hierarchy digest announcements actually put
	// on the wire (coalesced and unchanged-suppressed updates excluded).
	DigestUpdatesSent metrics.Counter
}

// NewFabric attaches a Range to the SCINET over net. The fabric's overlay
// node has its own GUID (the Range's transport host, if any, keeps the CS
// GUID). The Range's BatchMaxEvents/BatchMaxDelay govern the fabric's
// outbound coalescers exactly as they govern the Range Service's, and
// BatchMaxDelay is also the credit-ack window.
func NewFabric(rng *server.Range, net transport.Network, clk clock.Clock) (*Fabric, error) {
	if clk == nil {
		clk = clock.Real()
	}
	f := &Fabric{
		rng:       rng,
		clk:       clk,
		maxBatch:  rng.BatchMaxEvents(),
		maxDelay:  rng.BatchMaxDelay(),
		links:     make(map[guid.GUID]*link),
		ownerRefs: make(map[guid.GUID]int),
		remote:    make(map[guid.GUID]mediator.Record),
		taps:      make(map[ctxtype.Type]guid.GUID),
		downObs:   make(map[guid.GUID]uint64),
		statsWait: make(map[guid.GUID]chan statsResultMsg),
		seen:      guid.NewSet(),

		announceGen: 1,
	}
	f.refreshInterestSnapLocked()
	node, err := overlay.NewNode(overlay.Config{
		Network: net,
		Clock:   clk,
		Deliver: f.deliver,
		Forgot:  f.peerGone,
	})
	if err != nil {
		return nil, err
	}
	f.node = node
	f.fan = flow.New(flow.Config{
		Clock:    clk,
		MaxBatch: f.maxBatch,
		MaxDelay: f.maxDelay,
		Fair:     rng.FairFlush(),
		Stats:    rng.FlowStats(),
		Send:     f.fanOut,
	})
	rng.AddStatsSource(func() map[string]float64 {
		return map[string]float64{"remote.forward_failures": float64(f.ForwardFailures.Value())}
	})
	f.unwatch = rng.Registrar().Watch(registry.FuncWatcher{Departure: f.ownerDeparted})
	return f, nil
}

// NodeID returns the fabric's overlay node id.
func (f *Fabric) NodeID() guid.GUID { return f.node.ID() }

// FanoutPenalty reports the fan-out coalescer's current flush-rate penalty
// (1 = unthrottled) — a diagnostics window into how hard peer credit is
// braking this fabric's forwarding.
func (f *Fabric) FanoutPenalty() float64 { return f.fan.Penalty() }

// Range returns the attached Range.
func (f *Fabric) Range() *server.Range { return f.rng }

// Join enters the SCINET via a bootstrap fabric node, then announces this
// Range's coverage (and any cross-range interests) to every known node.
func (f *Fabric) Join(bootstrap guid.GUID) error {
	if err := f.node.Join(bootstrap); err != nil {
		return err
	}
	f.maybeActivateHierarchy()
	f.AnnounceCoverage(true)
	f.announceInterests(f.node.Known(), false)
	f.touchDigestAnnouncements()
	return nil
}

// AnnounceCoverage gossips this Range's coverage to all known overlay
// nodes.
func (f *Fabric) AnnounceCoverage(echo bool) {
	payload, err := json.Marshal(coverageMsg{Coverage: f.rng.Coverage(), Name: f.rng.Name(), Echo: echo})
	if err != nil {
		return
	}
	for _, peer := range f.node.Known() {
		_ = f.node.Send(peer, appCoverage, payload, nil)
	}
}

// Coverage returns the known coverage table, this fabric included: fabric
// node id → covered path.
func (f *Fabric) Coverage() map[guid.GUID]location.Path {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[guid.GUID]location.Path{f.node.ID(): f.rng.Coverage()}
	for id, l := range f.links {
		if c := l.routing().coverage; c != nil {
			out[id] = c.Coverage
		}
	}
	return out
}

// CoveringNode returns the fabric node whose announced coverage most
// specifically contains the path.
func (f *Fabric) CoveringNode(p location.Path) (guid.GUID, bool) {
	cov := f.Coverage()
	ids := make([]guid.GUID, 0, len(cov))
	for id := range cov {
		ids = append(ids, id)
	}
	guid.Sort(ids) // deterministic tie-break
	var best guid.GUID
	bestDepth := -1
	for _, id := range ids {
		c := cov[id]
		if c != "" && c.Contains(p) && c.Depth() > bestDepth {
			best, bestDepth = id, c.Depth()
		}
	}
	return best, bestDepth >= 0
}

// sendMsg sends msg to one peer as a JSON kind payload. An unencodable
// message is dropped without error: there is nothing else to do with it.
func (f *Fabric) sendMsg(to guid.GUID, kind string, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil
	}
	return f.node.Send(to, kind, payload, nil)
}

// deliver handles overlay payloads addressed to this fabric. Every message
// comes one hop, so the envelope's Origin is the sending fabric, and a
// handler acts only on that fabric's link; no body names its sender.
func (f *Fabric) deliver(d overlay.Delivery) {
	if d.Origin == f.node.ID() {
		return // a fabric never messages itself
	}
	switch d.AppKind {
	case appCoverage:
		f.handleCoverage(d)
	case appQuery:
		f.handleRemoteQuery(d)
	case appQueryResult:
		var msg queryResultMsg
		if json.Unmarshal(d.Payload, &msg) != nil {
			return
		}
		// Only the fabric the query was sent to may answer it. A success
		// reply nobody is waiting for (the submitter timed out and gave up)
		// withdraws the query at the fabric that just instantiated it.
		if l := f.lookupLink(d.Origin); (l == nil || !l.reply(msg)) && msg.Error == "" {
			f.sendCancel(d.Origin, msg.QueryID)
		}
	case appCancel:
		var msg cancelMsg
		if json.Unmarshal(d.Payload, &msg) != nil {
			return
		}
		// Only the query's own origin may withdraw it: the record lives on
		// that origin's link.
		if l := f.lookupLink(d.Origin); l != nil {
			f.dropServed(l, msg.QueryID)
		}
	case appEventBatch:
		f.handleEventBatch(d)
	case appEventBatchAck:
		f.handleBatchAck(d)
	case appInterest:
		f.handleInterest(d)
	case appDigest:
		f.handleDigest(d)
	case appLeave:
		f.peerGone(d.Origin)
	case appStats:
		f.handleStats(d)
	case appStatsResult:
		var msg statsResultMsg
		if json.Unmarshal(d.Payload, &msg) != nil {
			return
		}
		f.mu.Lock()
		ch, ok := f.statsWait[msg.Corr]
		f.mu.Unlock()
		if ok {
			select {
			case ch <- msg:
			default:
			}
		}
	}
}

func (f *Fabric) handleCoverage(d overlay.Delivery) {
	var msg coverageMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l := f.linkLocked(d.Origin)
	l.mu.Lock()
	known := l.row.coverage != nil
	l.row.coverage = &coverageMsg{Coverage: msg.Coverage, Name: msg.Name}
	if !known {
		// A digest sent before first contact may have reached the fabric
		// before its SetHierarchy, which drops it: owe that link afresh.
		l.digestSent = nil
	}
	l.mu.Unlock()
	f.mu.Unlock()
	if !known {
		// The fleet grew: a configured hierarchy may now reach its minimum.
		f.maybeActivateHierarchy()
		// A newly learned fabric also needs our interests (a joiner's
		// interest announcements may have raced ahead of its coverage) —
		// flat announcements when flat, digest announcements when
		// hierarchical (unchanged summaries are suppressed at send time).
		f.announceInterests([]guid.GUID{d.Origin}, false)
		f.touchDigestAnnouncements()
	}
	if msg.Echo && !known {
		// Reply with our own coverage so the joiner learns us.
		_ = f.sendMsg(d.Origin, appCoverage, coverageMsg{Coverage: f.rng.Coverage(), Name: f.rng.Name()})
	}
}

// handleStats answers a fleet-stats probe with this Range's dispatch.stats.
func (f *Fabric) handleStats(d overlay.Delivery) {
	var msg statsQueryMsg
	if json.Unmarshal(d.Payload, &msg) == nil {
		_ = f.sendMsg(d.Origin, appStatsResult, statsResultMsg{Corr: msg.Corr, Name: f.rng.Name(), Stats: f.rng.StatsMap()})
	}
}

// FleetDispatchStats collects dispatch.stats from every known fabric and
// aggregates them with this Range's own snapshot. Peers that do not answer
// within timeout (default RequestTimeout) are left out; the rollup reports
// how many Ranges it covers.
func (f *Fabric) FleetDispatchStats(timeout time.Duration) (*FleetStats, error) {
	if timeout <= 0 {
		timeout = RequestTimeout
	}
	if f.isClosed() {
		return nil, ErrClosed
	}

	type probe struct {
		peer guid.GUID
		corr guid.GUID
		ch   chan statsResultMsg
	}
	var probes []probe
	for _, peer := range f.node.Known() {
		corr := guid.New(guid.KindQuery)
		ch := make(chan statsResultMsg, 1)
		f.mu.Lock()
		f.statsWait[corr] = ch
		f.mu.Unlock()
		if f.sendMsg(peer, appStats, statsQueryMsg{Corr: corr}) == nil {
			probes = append(probes, probe{peer: peer, corr: corr, ch: ch})
			continue
		}
		f.mu.Lock()
		delete(f.statsWait, corr)
		f.mu.Unlock()
	}

	fs := &FleetStats{Totals: make(map[string]float64)}
	add := func(node guid.GUID, name string, stats map[string]float64) {
		fs.Ranges++
		fs.PerRange = append(fs.PerRange, RangeStats{Node: node, Name: name, Stats: stats})
		for k, v := range stats {
			fs.Totals[k] += v
		}
	}
	add(f.node.ID(), f.rng.Name(), f.rng.StatsMap())

	deadline := f.clk.Now().Add(timeout)
	for _, p := range probes {
		select {
		case res := <-p.ch:
			add(p.peer, res.Name, res.Stats)
		case <-f.clk.After(deadline.Sub(f.clk.Now())):
		}
		f.mu.Lock()
		delete(f.statsWait, p.corr)
		f.mu.Unlock()
	}
	// A ratio of sums, not a sum of ratios.
	if hits, scanned := fs.Totals["eventbus.index_hits"], fs.Totals["eventbus.residual_scanned"]; hits+scanned > 0 {
		fs.Totals["eventbus.index_hit_ratio"] = hits / (hits + scanned)
	} else {
		fs.Totals["eventbus.index_hit_ratio"] = 1
	}
	sort.Slice(fs.PerRange, func(i, j int) bool { return fs.PerRange[i].Name < fs.PerRange[j].Name })
	return fs, nil
}

// Names returns the known range names keyed by fabric node, for
// diagnostics, sorted output.
func (f *Fabric) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := []string{f.rng.Name()}
	for _, l := range f.links {
		if c := l.routing().coverage; c != nil {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Close flushes outbound coalescers, announces departure so peers tear
// down per-peer state, closes every link (failing in-flight Submits with
// ErrClosed), releases every served query (removing their proxy CAAs from
// the Range), cancels the mediator taps and detaches the overlay node.
func (f *Fabric) Close() error {
	// Flush while the fabric is still open: the fan-out queue's recipients
	// come from the interest snapshot, which the closed transition empties,
	// so the pending batches must leave before it. (Fan-out events
	// published concurrently with Close may land after this flush; they are
	// dropped with the rest of the closing fabric's state.)
	if f.isClosed() {
		return nil
	}
	f.fan.Flush()

	f.mu.Lock()
	if f.closed {
		// Lost a race against a concurrent Close.
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	taps := make([]guid.GUID, 0, len(f.taps))
	for _, id := range f.taps {
		taps = append(taps, id)
	}
	f.taps = make(map[ctxtype.Type]guid.GUID)
	// Withdraw this fabric's digests so hierarchy neighbors stop routing
	// through it at once instead of waiting for the overlay to forget it.
	type withdrawal struct {
		to  guid.GUID
		msg digestMsg
	}
	var withdraw []withdrawal
	if f.hierOn {
		for _, to := range f.hierLinkIDsLocked() {
			msg, _ := f.digestMsgLocked(to)
			msg.Remove = true
			withdraw = append(withdraw, withdrawal{to, msg})
		}
	}
	f.hierOn = false
	if f.hierSet {
		f.hierSnap.Store(&hierView{}) // inactive: hierarchy routing matches nothing
	}
	links := make([]*link, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.links = make(map[guid.GUID]*link)
	f.refreshInterestSnapLocked() // fanOut/relay match nothing once closed
	f.mu.Unlock()
	f.unwatch()

	for _, w := range withdraw {
		_ = f.sendMsg(w.to, appDigest, w.msg)
	}

	guid.Sort(taps)
	for _, id := range taps {
		_ = f.rng.Mediator().Cancel(id)
	}
	// Pending routed results leave before their link closes.
	type servedRef struct {
		l   *link
		qid guid.GUID
	}
	var served []servedRef
	for _, l := range links {
		for _, q := range l.resultQueues() {
			q.Flush()
		}
		for _, qid := range l.close(ErrClosed) {
			served = append(served, servedRef{l, qid})
		}
	}
	for _, peer := range f.node.Known() {
		_ = f.node.Send(peer, appLeave, nil, nil)
	}
	sort.Slice(served, func(i, j int) bool { return guid.Less(served[i].qid, served[j].qid) })
	for _, s := range served {
		f.dropServed(s.l, s.qid)
	}
	return f.node.Close()
}

func (f *Fabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}
