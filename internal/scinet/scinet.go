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
// # Cross-range fan-out
//
// Beyond per-query forwarding, fabrics exchange published events directly.
// A Range announces cross-range interests (event filters) to its peers;
// each peer taps its own Event Mediator through a batch subscription and
// forwards matching publishes as coalesced scinet.event_batch payloads —
// one message per BatchMaxEvents events per interested peer, not
// one per event. The receiving fabric hands a whole batch to its Event
// Mediator's batched dispatch path without copying it, and re-forwards it
// to interested peers the sender did not know about.
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
// attach to a super-peer hierarchy (SetHierarchy, typically planned with
// overlay.PlanTree): a leaf announces its interests only to its
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
// keeps the same per-link coalescing, credit acks and relay shedding as a
// flat link. See hierarchy.go.
package scinet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/metrics"
	"sci/internal/overlay"
	"sci/internal/query"
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
	// per-peer state (proxies, interests, coalescers) immediately.
	appLeave = "scinet.leave"
	// appDigest and appInterestSync belong to the hierarchical interest
	// layer; see hierarchy.go.
	// appStats / appStatsResult carry the fleet-wide dispatch.stats rollup.
	appStats       = "scinet.stats"
	appStatsResult = "scinet.stats_result"
)

type coverageMsg struct {
	Origin   guid.GUID     `json:"origin"` // fabric node id
	Coverage location.Path `json:"coverage"`
	Name     string        `json:"name"`
	// Echo requests the receiver to send its own coverage back (anti-
	// entropy on join).
	Echo bool `json:"echo,omitempty"`
}

type queryMsg struct {
	Origin  guid.GUID `json:"origin"` // fabric node id to reply to
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

// interestMsg announces one fabric's cross-range interests. Receivers
// update their table entry for Owner and re-gossip changes, so records
// cross partially connected topologies.
//
// Gen orders announcements per owner and is never zero: Full carries the
// complete set (sent on first contact, on resync, and whenever the
// receiver's delta chain broke), while Add/Del carry only the change
// since Prev — a receiver applies a delta only when Prev equals the
// generation it holds, and otherwise asks the owner for a full
// re-announce (appInterestSync). Stale generations are discarded, so
// reordered gossip cannot roll an entry back.
type interestMsg struct {
	Owner   guid.GUID      `json:"owner"`
	Filters []event.Filter `json:"filters,omitempty"`
	// Remove withdraws all of Owner's interests (departure, or a Full
	// announcement of an empty set).
	Remove bool `json:"remove,omitempty"`
	// Gen orders announcements per owner; zero is malformed.
	Gen uint64 `json:"gen"`
	// Prev is the generation a delta applies on top of.
	Prev uint64 `json:"prev,omitempty"`
	// Full marks a complete-set announcement (Filters is authoritative).
	Full bool `json:"full,omitempty"`
	// Add/Del are the delta form's changes since Prev.
	Add []event.Filter `json:"add,omitempty"`
	Del []event.Filter `json:"del,omitempty"`
}

// eventBatchAckMsg is a receiver's flow-credit report for event_batch
// traffic: Dropped is the cumulative count of dispatch drops *attributed to
// the acked sender's traffic* (the bus's per-publisher attribution — never
// the Range-wide total, which would blame one link for another's flood)
// and QueueFree its remaining queue capacity (negative = unknown).
//
// DownstreamBy makes credit transitive across relays: it carries per-origin
// *accounts*, cumulative drop figures keyed by the fabric that observed
// them at its own receivers, merged by max at every hop. Max-merging is
// idempotent, so a figure that travels a cycle — or returns to the fabric
// that first reported it — converges instead of being re-counted as fresh
// congestion on every lap; the sender also excludes accounts keyed by the
// recipient, so nobody is told about its own receivers' drops twice.
// Receivers throttle on Dropped plus the sum of the accounts, which is
// monotone per sender because the excluded key set per recipient is fixed.
// QueryAck marks a cumulative routed-query credit frame that applies to
// every per-(peer, query) coalescer the serving fabric keeps toward the
// sender — all of them track the same per-peer drop figure, so one frame
// per peer per window replaces a frame per result batch; those acks carry
// no downstream accounts at all.
type eventBatchAckMsg struct {
	Origin       guid.GUID            `json:"origin"`
	QueryAck     bool                 `json:"query_ack,omitempty"`
	Events       int                  `json:"events,omitempty"`
	Dropped      uint64               `json:"dropped"`
	DownstreamBy map[guid.GUID]uint64 `json:"downstream_by,omitempty"`
	QueueFree    int                  `json:"queue_free"`
}

type leaveMsg struct {
	Origin guid.GUID `json:"origin"`
}

type cancelMsg struct {
	QueryID guid.GUID `json:"query_id"`
	Origin  guid.GUID `json:"origin"` // the fabric withdrawing its query
}

type statsQueryMsg struct {
	Origin guid.GUID `json:"origin"`
	Corr   guid.GUID `json:"corr"`
}

type statsResultMsg struct {
	Corr  guid.GUID          `json:"corr"`
	Name  string             `json:"name"`
	Stats map[string]float64 `json:"stats"`
}

// Result mirrors the answer to a forwarded subscription query.
type Result struct {
	QueryID       guid.GUID
	Deferred      bool
	Configuration guid.GUID
	Provider      guid.GUID
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

// tapQueueLen is the queue capacity of the fabric's mediator tap and of
// SubscribeRemote subscriptions: generous, because a tap absorbs whole
// publish bursts for forwarding.
const tapQueueLen = 4096

// queueKey identifies one outbound coalescer: the destination fabric and,
// for routed-query traffic, the query whose results it carries.
type queueKey struct {
	peer guid.GUID
	qid  guid.GUID
}

// outQuery is the origin side of one forwarded query: the consumer of the
// routed result events and the fabric serving the query (for teardown when
// that peer departs).
type outQuery struct {
	caa    *entity.CAA
	target guid.GUID
}

// servedQuery is the serving side of one forwarded query.
type servedQuery struct {
	origin guid.GUID // origin fabric node
	owner  guid.GUID // remote CAA the proxy stands in for
	cfg    guid.GUID // instantiated configuration (nil while deferred)
}

// Fabric is one Range's presence in the SCINET.
type Fabric struct {
	rng  *server.Range
	node *overlay.Node
	clk  clock.Clock

	maxBatch  int
	maxDelay  time.Duration
	adaptive  flow.Adaptive
	ackWindow time.Duration

	// Flow-layer callbacks (Coalescer send paths) run while the coalescer
	// holds its flush lock and may take f.mu downstream, so no flow entry
	// point (Flush, Touch, Stop, Discard) may ever be called with f.mu
	// held — collect under the lock, call after unlocking.
	//
	//lint:lockorder flow.Coalescer.sendMu < scinet.Fabric.mu send callbacks run under the flush lock and take f.mu; flushing under f.mu inverts it
	mu        sync.Mutex
	coverage  map[guid.GUID]coverageMsg         // guarded by mu; fabric node → its coverage
	waiters   map[guid.GUID]chan queryResultMsg // guarded by mu
	consumers map[guid.GUID]*outQuery           // guarded by mu; queryID → origin-side consumer
	served    map[guid.GUID]*servedQuery        // guarded by mu; queryID → serving-side record
	ownerRefs map[guid.GUID]int                 // guarded by mu; remote owner → live served queries
	interests map[guid.GUID][]event.Filter      // guarded by mu; fabric node → its announced interests
	local     []localInterest                   // guarded by mu; this fabric's own interests, refcounted
	taps      map[ctxtype.Type]guid.GUID        // guarded by mu; mediator taps by tap type (Wildcard key = residual tap)
	queues    map[queueKey]*flow.Coalescer      // guarded by mu; outbound coalescers, routed-query traffic
	fan       *flow.Coalescer                   // outbound coalescer, fan-out traffic
	peerDrops map[guid.GUID]uint64              // guarded by mu; last combined (drops+downstream) report per peer (fan-out acks)
	downObs   map[guid.GUID]uint64              // guarded by mu; downstream accounts: observing fabric → max cumulative drops seen
	facks     map[guid.GUID]*flow.AckCoalescer  // guarded by mu; coalesced fan-path ack owed per peer
	qacks     map[guid.GUID]*flow.AckCoalescer  // guarded by mu; coalesced routed-query ack owed per peer
	relays    map[guid.GUID]*relayQueue         // guarded by mu; bounded relay backlog per throttled peer
	statsWait map[guid.GUID]chan statsResultMsg // guarded by mu
	seen      guid.Set                          // guarded by mu; recently ingested batch ids (duplicate window)
	seenRing  []guid.GUID                       // guarded by mu; eviction order for seen, bounded at seenWindow
	seenPos   int                               // guarded by mu
	closed    bool                              // guarded by mu

	// Hierarchical interest routing state (hierarchy.go).
	hier         HierarchyConfig                     // guarded by mu
	hierSet      bool                                // guarded by mu; SetHierarchy was called
	hierOn       bool                                // guarded by mu; hierarchical routing latched active
	hierGen      uint64                              // guarded by mu; generation stamp of outgoing digests
	hierStatsOn  bool                                // guarded by mu; stats source registered
	childDigests map[guid.GUID]*wire.Digest          // guarded by mu; child → its subtree digest
	peerDigests  map[guid.GUID]*wire.Digest          // guarded by mu; peer super-peer → its subtree digest
	upDigest     *wire.Digest                        // guarded by mu; parent's downward rest-of-fleet digest
	digestGens   map[guid.GUID]uint64                // guarded by mu; last digest generation seen per announcer
	digestSent   map[guid.GUID]*wire.Digest          // guarded by mu; last digest shipped per link (suppression)
	digestCoal   map[guid.GUID]*flow.UpdateCoalescer // guarded by mu; per-link digest update pacing
	childFwd     map[guid.GUID]uint64                // guarded by mu; batches forwarded into each child subtree

	// Delta interest-announcement state.
	announceGen uint64               // guarded by mu; local interest-set generation, starts at 1 (zero is malformed on the wire)
	sentGen     map[guid.GUID]uint64 // guarded by mu; last generation announced per peer (absent = never)
	interestGen map[guid.GUID]uint64 // guarded by mu; last generation applied per interest owner

	// interestSnap is the lock-free copy-on-write view of interests that
	// fanOut and relay match against; rebuilt under mu whenever the live
	// table changes.
	interestSnap atomic.Pointer[[]interestEntry]
	// hierSnap is the lock-free hierarchy routing view (nil until
	// SetHierarchy); rebuilt under mu whenever hierarchy state changes.
	hierSnap atomic.Pointer[hierView]

	// BatchesForwarded / EventsForwarded count the fan-out and routed-query
	// batches this fabric originated and handed to the transport (one batch
	// per message per peer) and the events they carried. A send the
	// transport refused is not counted: it tears the peer down instead.
	BatchesForwarded metrics.Counter
	EventsForwarded  metrics.Counter
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

// seenWindow bounds the duplicate-suppression window: how many recently
// ingested batch ids a fabric remembers.
const seenWindow = 4096

// localInterest is one of this fabric's own announced interests. Two
// SubscribeRemote calls sharing a filter share one entry: the refcount
// makes the first withdrawal survive the second subscription, so interest
// lifetime follows subscription cancellation exactly.
type localInterest struct {
	flt  event.Filter
	refs int
}

// NewFabric attaches a Range to the SCINET over net. The fabric's overlay
// node has its own GUID (the Range's transport host, if any, keeps the CS
// GUID). The Range's BatchMaxEvents/BatchMaxDelay govern the fabric's
// outbound coalescers exactly as they govern the Range Service's.
func NewFabric(rng *server.Range, net transport.Network, clk clock.Clock) (*Fabric, error) {
	if clk == nil {
		clk = clock.Real()
	}
	f := &Fabric{
		rng:       rng,
		clk:       clk,
		maxBatch:  rng.BatchMaxEvents(),
		maxDelay:  rng.BatchMaxDelay(),
		adaptive:  rng.AdaptiveBatching(),
		ackWindow: rng.BatchMaxDelay(),
		coverage:  make(map[guid.GUID]coverageMsg),
		waiters:   make(map[guid.GUID]chan queryResultMsg),
		consumers: make(map[guid.GUID]*outQuery),
		served:    make(map[guid.GUID]*servedQuery),
		ownerRefs: make(map[guid.GUID]int),
		interests: make(map[guid.GUID][]event.Filter),
		taps:      make(map[ctxtype.Type]guid.GUID),
		queues:    make(map[queueKey]*flow.Coalescer),
		peerDrops: make(map[guid.GUID]uint64),
		downObs:   make(map[guid.GUID]uint64),
		facks:     make(map[guid.GUID]*flow.AckCoalescer),
		qacks:     make(map[guid.GUID]*flow.AckCoalescer),
		relays:    make(map[guid.GUID]*relayQueue),
		statsWait: make(map[guid.GUID]chan statsResultMsg),
		seen:      guid.NewSet(),

		childDigests: make(map[guid.GUID]*wire.Digest),
		peerDigests:  make(map[guid.GUID]*wire.Digest),
		digestGens:   make(map[guid.GUID]uint64),
		digestSent:   make(map[guid.GUID]*wire.Digest),
		digestCoal:   make(map[guid.GUID]*flow.UpdateCoalescer),
		childFwd:     make(map[guid.GUID]uint64),
		announceGen:  1,
		sentGen:      make(map[guid.GUID]uint64),
		interestGen:  make(map[guid.GUID]uint64),
	}
	f.refreshInterestSnapLocked()
	if f.ackWindow <= 0 {
		f.ackWindow = server.DefaultBatchMaxDelay
	}
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
		Adaptive: f.adaptive,
		Fair:     rng.FairFlush(),
		Stats:    rng.FlowStats(),
		Send:     f.fanOut,
	})
	f.coverage[node.ID()] = coverageMsg{
		Origin:   node.ID(),
		Coverage: rng.Coverage(),
		Name:     rng.Name(),
	}
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
	if f.hierarchyActive() {
		f.touchDigestAnnouncements()
	} else {
		f.announceInterests()
	}
	return nil
}

// AnnounceCoverage gossips this Range's coverage to all known overlay
// nodes.
func (f *Fabric) AnnounceCoverage(echo bool) {
	msg := coverageMsg{
		Origin:   f.node.ID(),
		Coverage: f.rng.Coverage(),
		Name:     f.rng.Name(),
		Echo:     echo,
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	for _, peer := range f.node.Known() {
		_ = f.node.Send(peer, appCoverage, payload, nil)
	}
}

// Coverage returns the known coverage table: fabric node id → covered path,
// sorted by node id.
func (f *Fabric) Coverage() map[guid.GUID]location.Path {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[guid.GUID]location.Path, len(f.coverage))
	for id, c := range f.coverage {
		out[id] = c.Coverage
	}
	return out
}

// CoveringNode returns the fabric node whose announced coverage most
// specifically contains the path.
func (f *Fabric) CoveringNode(p location.Path) (guid.GUID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best guid.GUID
	bestDepth := -1
	ids := make([]guid.GUID, 0, len(f.coverage))
	for id := range f.coverage {
		ids = append(ids, id)
	}
	guid.Sort(ids) // deterministic tie-break
	for _, id := range ids {
		c := f.coverage[id]
		if c.Coverage == "" {
			continue
		}
		if c.Coverage.Contains(p) && c.Coverage.Depth() > bestDepth {
			best, bestDepth = id, c.Coverage.Depth()
		}
	}
	return best, bestDepth >= 0
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
	payload, err := json.Marshal(queryMsg{
		Origin:  f.node.ID(),
		QueryID: q.ID,
		XML:     xmlData,
	})
	if err != nil {
		return nil, err
	}

	ch := make(chan queryResultMsg, 1)
	f.mu.Lock()
	f.waiters[q.ID] = ch
	if owner != nil {
		f.consumers[q.ID] = &outQuery{caa: owner, target: target}
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.waiters, q.ID)
		f.mu.Unlock()
	}()

	if err := f.node.Send(target, appQuery, payload, nil); err != nil {
		f.dropConsumer(q.ID)
		return nil, err
	}
	select {
	case res := <-ch:
		if res.Error != "" {
			f.dropConsumer(q.ID)
			return nil, fmt.Errorf("scinet: remote range: %s", res.Error)
		}
		return &Result{
			QueryID:       q.ID,
			Deferred:      res.Deferred,
			Configuration: res.Configuration,
			Provider:      res.Provider,
		}, nil
	case <-f.clk.After(RequestTimeout):
		// The consumer entry must not outlive the failed round trip: an
		// abandoned entry would leak and keep routing stray events to an
		// application that was told its query failed. The serving side may
		// have succeeded (its reply merely late or lost), so withdraw the
		// query there too — otherwise it would keep a configuration, a
		// proxy CAA and a coalescer streaming events nobody receives.
		f.dropConsumer(q.ID)
		f.sendCancel(target, q.ID)
		return nil, ErrTimeout
	}
}

// sendCancel withdraws a forwarded query at its serving fabric.
func (f *Fabric) sendCancel(target, qid guid.GUID) {
	payload, err := json.Marshal(cancelMsg{QueryID: qid, Origin: f.node.ID()})
	if err != nil {
		return
	}
	_ = f.node.Send(target, appCancel, payload, nil)
}

func (f *Fabric) dropConsumer(qid guid.GUID) {
	f.mu.Lock()
	delete(f.consumers, qid)
	f.mu.Unlock()
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

// deliver handles overlay payloads addressed to this fabric.
func (f *Fabric) deliver(d overlay.Delivery) {
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
		f.mu.Lock()
		ch, ok := f.waiters[msg.QueryID]
		f.mu.Unlock()
		if ok {
			select {
			case ch <- msg:
			default:
			}
		} else if msg.Error == "" {
			// A success reply nobody is waiting for: the submitter already
			// timed out and gave up, so withdraw the query at the fabric
			// that just instantiated it.
			f.sendCancel(d.Origin, msg.QueryID)
		}
	case appCancel:
		var msg cancelMsg
		if json.Unmarshal(d.Payload, &msg) != nil {
			return
		}
		f.mu.Lock()
		sq, ok := f.served[msg.QueryID]
		f.mu.Unlock()
		// Only the query's own origin may withdraw it.
		if ok && sq.origin == msg.Origin {
			f.dropServed(msg.QueryID)
		}
	case appEventBatch:
		f.handleEventBatch(d)
	case appEventBatchAck:
		f.handleBatchAck(d)
	case appInterest:
		f.handleInterest(d)
	case appDigest:
		f.handleDigest(d)
	case appInterestSync:
		f.handleInterestSync(d)
	case appLeave:
		var msg leaveMsg
		if json.Unmarshal(d.Payload, &msg) != nil {
			return
		}
		f.peerGone(msg.Origin)
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
	_, known := f.coverage[msg.Origin]
	f.coverage[msg.Origin] = coverageMsg{Origin: msg.Origin, Coverage: msg.Coverage, Name: msg.Name}
	if !known {
		// A digest sent before first contact may have reached the fabric
		// before its SetHierarchy, which drops it: owe that link afresh.
		delete(f.digestSent, msg.Origin)
	}
	f.mu.Unlock()
	if !known {
		// The fleet grew: a configured hierarchy may now reach its minimum.
		f.maybeActivateHierarchy()
		// A newly learned fabric also needs our interests (a joiner's
		// interest announcements may have raced ahead of its coverage) —
		// flat announcements when flat, digest announcements when
		// hierarchical (unchanged summaries are suppressed at send time).
		f.announceInterestsTo(msg.Origin)
		f.touchDigestAnnouncements()
	}
	if msg.Echo && !known {
		// Reply with our own coverage so the joiner learns us.
		reply := coverageMsg{
			Origin:   f.node.ID(),
			Coverage: f.rng.Coverage(),
			Name:     f.rng.Name(),
		}
		if payload, err := json.Marshal(reply); err == nil {
			_ = f.node.Send(msg.Origin, appCoverage, payload, nil)
		}
	}
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
		f.sendResult(msg.Origin, reply)
		return
	}
	// Stand-in application for the remote owner: whole delivery runs it
	// consumes are coalesced and sent back to the origin tagged with the
	// query id.
	origin := msg.Origin
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
		f.sendResult(origin, reply)
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
		f.sendResult(origin, reply)
		return
	}
	f.ownerRefs[q.Owner]++
	f.served[qid] = &servedQuery{origin: origin, owner: q.Owner}
	f.mu.Unlock()

	res, err := f.rng.Submit(q)
	if err != nil {
		reply.Error = err.Error()
		// The failed query must not leave its proxy behind: release the
		// serving-side record, which removes the proxy CAA when this was
		// the owner's last live query.
		f.dropServed(qid)
	} else {
		reply.Deferred = res.Deferred
		reply.Configuration = res.Configuration
		reply.Provider = res.Provider
		f.mu.Lock()
		sq, live := f.served[qid]
		if live {
			sq.cfg = res.Configuration
		}
		f.mu.Unlock()
		if !live && !res.Configuration.IsNil() {
			// The origin departed (or the fabric closed) while Submit was
			// instantiating: the served record — the only teardown handle —
			// is already gone, so the fresh configuration must die here or
			// it would run forever feeding a departed peer.
			_ = f.rng.Runtime().Teardown(res.Configuration)
		}
	}
	f.sendResult(origin, reply)
}

// dropServed releases one serving-side query record: its configuration is
// torn down, its outbound coalescer discarded, and — when this was the
// remote owner's last live query — the shared proxy CAA is removed from the
// Range so proxies never accumulate.
func (f *Fabric) dropServed(qid guid.GUID) {
	f.mu.Lock()
	sq, ok := f.served[qid]
	if !ok {
		f.mu.Unlock()
		return
	}
	delete(f.served, qid)
	f.ownerRefs[sq.owner]--
	last := f.ownerRefs[sq.owner] <= 0
	if last {
		delete(f.ownerRefs, sq.owner)
	}
	key := queueKey{peer: sq.origin, qid: qid}
	q := f.queues[key]
	delete(f.queues, key)
	f.mu.Unlock()

	if q != nil {
		q.Discard()
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
	out := make([]guid.GUID, 0, len(f.served))
	for qid := range f.served {
		out = append(out, qid)
	}
	guid.Sort(out)
	return out
}

func (f *Fabric) sendResult(to guid.GUID, msg queryResultMsg) {
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	_ = f.node.Send(to, appQueryResult, payload, nil)
}

// ----- cross-range fan-out -----

// AddInterest registers a cross-range interest: events matching flt that
// are published in sibling Ranges will be forwarded here in coalesced
// batches and ingested through the local Range's batched dispatch path.
// The interest is announced to every known fabric (and re-announced to
// fabrics learned later). Interests are refcounted by filter: a second
// AddInterest of the same filter bumps the count instead of duplicating
// the announcement, and only the matching number of RemoveInterest calls
// withdraws it.
func (f *Fabric) AddInterest(flt event.Filter) {
	f.mu.Lock()
	found := false
	for i := range f.local {
		if f.local[i].flt == flt {
			f.local[i].refs++
			found = true
			break
		}
	}
	var gen uint64
	hier := false
	if !found {
		f.local = append(f.local, localInterest{flt: flt, refs: 1})
		f.announceGen++
		gen = f.announceGen
		hier = f.hierOn
	}
	f.mu.Unlock()
	if !found {
		if hier {
			f.touchDigestAnnouncements()
		} else {
			f.announceChange(gen, []event.Filter{flt}, nil)
		}
	}
}

// RemoveInterest drops one reference to a previously added interest. The
// filter is withdrawn from peers only when its last reference goes — two
// SubscribeRemote calls sharing one filter survive the first withdrawal.
// Peers whose delta chain is intact get just the withdrawal; a withdrawal
// that empties the whole set makes peers drop this fabric's entry entirely.
func (f *Fabric) RemoveInterest(flt event.Filter) {
	f.mu.Lock()
	changed := false
	for i := range f.local {
		if f.local[i].flt == flt {
			f.local[i].refs--
			if f.local[i].refs <= 0 {
				f.local = append(f.local[:i], f.local[i+1:]...)
				changed = true
			}
			break
		}
	}
	closed := f.closed
	var gen uint64
	hier := false
	if changed && !closed {
		f.announceGen++
		gen = f.announceGen
		hier = f.hierOn
	}
	f.mu.Unlock()
	if !changed || closed {
		return
	}
	if hier {
		f.touchDigestAnnouncements()
		return
	}
	f.announceChange(gen, nil, []event.Filter{flt})
}

// SubscribeRemote subscribes owner to events matching flt published
// anywhere in the SCINET: a local mediator subscription receives both local
// publishes and ingested cross-range batches, and the filter is announced
// as an interest so sibling fabrics forward matching events here.
func (f *Fabric) SubscribeRemote(owner guid.GUID, flt event.Filter, h func(event.Event)) (mediator.Record, error) {
	rec, err := f.rng.Mediator().Subscribe(owner, flt, h, mediator.SubOptions{QueueLen: tapQueueLen})
	if err != nil {
		return mediator.Record{}, err
	}
	f.AddInterest(flt)
	return rec, nil
}

// UnsubscribeRemote tears down a SubscribeRemote subscription symmetrically:
// the local mediator record is cancelled and its announced interest
// withdrawn, so peers stop forwarding (and tear down idle taps) instead of
// shipping events nobody consumes.
func (f *Fabric) UnsubscribeRemote(rec mediator.Record) error {
	err := f.rng.Mediator().Cancel(rec.ID)
	f.RemoveInterest(rec.Filter)
	return err
}

// ForgetInterest drops one fabric's entry from the local interest table
// without touching the peer itself — a partial-knowledge hook for tests
// and experiments (a fabric that never learned of an interested peer must
// rely on relays to cover it, the multi-hop topology E13 exercises).
// In-flight gossip may re-add the entry; callers loop until it stays gone.
// It reports whether an entry was present.
func (f *Fabric) ForgetInterest(owner guid.GUID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.interests[owner]
	delete(f.interests, owner)
	if ok {
		f.refreshInterestSnapLocked()
	}
	return ok
}

// Interests returns the known interest table: fabric node → announced
// filters (diagnostics; the forwarding decisions read the live table).
func (f *Fabric) Interests() map[guid.GUID][]event.Filter {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[guid.GUID][]event.Filter, len(f.interests))
	for id, flts := range f.interests {
		out[id] = append([]event.Filter(nil), flts...)
	}
	return out
}

// announceInterests sends this fabric's full interest set to every known
// peer (join-time anti-entropy; no-op while the hierarchy is active).
func (f *Fabric) announceInterests() {
	for _, peer := range f.node.Known() {
		f.announceInterestsTo(peer)
	}
}

// announceChange propagates one local interest change to every known peer:
// a delta to peers whose chain is intact, a full set otherwise.
func (f *Fabric) announceChange(gen uint64, add, del []event.Filter) {
	for _, peer := range f.node.Known() {
		f.announceChangeTo(peer, gen, add, del)
	}
}

// announceChangeTo ships one interest change to one peer. The delta form
// goes only when the peer was last sent exactly the previous generation;
// any doubt — first contact, a skipped announcement, out-of-order change
// goroutines — falls back to the full set stamped with the current
// generation. A change already covered by a newer announcement to this
// peer is skipped outright.
func (f *Fabric) announceChangeTo(peer guid.GUID, gen uint64, add, del []event.Filter) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	msg := interestMsg{Owner: f.node.ID()}
	switch {
	case f.sentGen[peer] == gen-1: // gen ≥ 2 here, so an absent entry never matches
		msg.Gen = gen
		msg.Prev = gen - 1
		msg.Add = add
		msg.Del = del
		f.sentGen[peer] = gen
	case gen > f.sentGen[peer]:
		msg.Gen = f.announceGen
		msg.Full = true
		msg.Filters = f.localFiltersLocked()
		msg.Remove = len(msg.Filters) == 0
		f.sentGen[peer] = msg.Gen
	default:
		f.mu.Unlock()
		return // a newer announcement already covered this change
	}
	f.mu.Unlock()
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	_ = f.node.Send(peer, appInterest, payload, nil)
}

// localFiltersLocked snapshots this fabric's own interest filters (one
// entry per distinct filter, whatever its refcount). Callers hold f.mu.
func (f *Fabric) localFiltersLocked() []event.Filter {
	out := make([]event.Filter, len(f.local))
	for i := range f.local {
		out[i] = f.local[i].flt
	}
	return out
}

// announceInterestsTo sends the full set to one peer on first contact —
// skipped when there is nothing to say, and in hierarchy mode (digests
// replace flat announcements there).
func (f *Fabric) announceInterestsTo(peer guid.GUID) {
	f.announceFull(peer, false)
}

// announceFullTo force-sends the full set to one peer — the resync reply,
// sent even when empty so a ghost entry at the peer is cleared.
func (f *Fabric) announceFullTo(peer guid.GUID) {
	f.announceFull(peer, true)
}

func (f *Fabric) announceFull(peer guid.GUID, force bool) {
	f.mu.Lock()
	filters := f.localFiltersLocked()
	skip := f.closed || f.hierOn || (!force && len(filters) == 0)
	gen := f.announceGen
	if !skip {
		f.sentGen[peer] = gen
	}
	f.mu.Unlock()
	if skip {
		return
	}
	msg := interestMsg{Owner: f.node.ID(), Gen: gen, Full: true, Filters: filters}
	msg.Remove = len(filters) == 0
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	_ = f.node.Send(peer, appInterest, payload, nil)
}

// handleInterest ingests an interest announcement, establishes or tears
// down the local mediator tap, and re-gossips changed records to other
// peers so interests cross partially connected topologies. Generation-
// stamped announcements are ordered per owner: stale ones are discarded,
// deltas apply only on top of exactly the generation they name, and a gap
// triggers a full resync from the owner instead of a blind apply.
func (f *Fabric) handleInterest(d overlay.Delivery) {
	var msg interestMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	if msg.Gen == 0 || msg.Owner == f.node.ID() {
		return // malformed, or our own record echoed back
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	changed := false
	resync := false
	switch {
	case msg.Gen <= f.interestGen[msg.Owner]:
		// Stale or duplicate generation: nothing to apply or re-gossip.
	case msg.Full || msg.Remove:
		// A full set: replace or delete outright.
		f.interestGen[msg.Owner] = msg.Gen
		if msg.Remove || len(msg.Filters) == 0 {
			if _, ok := f.interests[msg.Owner]; ok {
				delete(f.interests, msg.Owner)
				changed = true
			}
		} else if !filtersEqual(f.interests[msg.Owner], msg.Filters) {
			f.interests[msg.Owner] = append([]event.Filter(nil), msg.Filters...)
			changed = true
		}
	case msg.Prev != f.interestGen[msg.Owner]:
		// A delta whose base we do not hold: the chain broke (lost or
		// reordered announcement) — ask the owner for the full set.
		resync = true
	default:
		// In-sequence delta: remove Del, add Add, drop the entry if empty
		// (an empty entry would cost snapshot scans for nothing).
		cur := f.interests[msg.Owner]
		next := make([]event.Filter, 0, len(cur)+len(msg.Add))
	keep:
		for _, fl := range cur {
			for _, dl := range msg.Del {
				if fl == dl {
					continue keep
				}
			}
			next = append(next, fl)
		}
	add:
		for _, al := range msg.Add {
			for _, fl := range next {
				if fl == al {
					continue add
				}
			}
			next = append(next, al)
		}
		f.interestGen[msg.Owner] = msg.Gen
		if len(next) == 0 {
			delete(f.interests, msg.Owner)
		} else {
			f.interests[msg.Owner] = next
		}
		changed = true
	}
	if changed {
		f.refreshInterestSnapLocked()
	}
	f.mu.Unlock()
	if resync {
		if payload, err := json.Marshal(interestSyncMsg{From: f.node.ID()}); err == nil {
			_ = f.node.Send(msg.Owner, appInterestSync, payload, nil)
		}
		return
	}
	f.reconcileTaps()
	if !changed {
		return
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	for _, peer := range f.node.Known() {
		if peer == d.Origin || peer == msg.Owner {
			continue
		}
		_ = f.node.Send(peer, appInterest, payload, nil)
	}
}

func filtersEqual(a, b []event.Filter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// desiredTapTypesLocked derives the mediator tap set the interest table
// demands: the minimal set of concrete filter types covering every type a
// peer announced, with hierarchical overlap deduplicated (an interest in
// "temperature.celsius" is already covered by a tap on "temperature", and
// tapping both would forward those events twice). wildcard is true when a
// peer's filter names no concrete type — or when declared semantic
// equivalences could make one event match two typed taps — in which case
// one residual-tier tap serves everything, exactly the pre-typed-tap
// behaviour. Callers hold f.mu.
func desiredTapTypesLocked(interests map[guid.GUID][]event.Filter, reg *ctxtype.Registry) (types []ctxtype.Type, wildcard bool) {
	if len(interests) == 0 {
		return nil, false
	}
	set := make(map[ctxtype.Type]bool)
	for _, flts := range interests {
		for _, fl := range flts {
			if fl.Type == "" || fl.Type == ctxtype.Wildcard {
				return nil, true
			}
			set[fl.Type] = true
		}
	}
	all := make([]ctxtype.Type, 0, len(set))
	for t := range set {
		all = append(all, t)
	}
	// Shallowest first, name-ordered for determinism: an ancestor always
	// precedes its descendants, so one pass keeps only uncovered types.
	sort.Slice(all, func(i, j int) bool {
		if di, dj := all[i].Depth(), all[j].Depth(); di != dj {
			return di < dj
		}
		return all[i] < all[j]
	})
	kept := all[:0]
outer:
	for _, t := range all {
		for _, k := range kept {
			if t.HasAncestor(k) {
				continue outer
			}
		}
		kept = append(kept, t)
	}
	// Equivalence guard: the dispatch index also matches an event to a tap
	// through the event type's declared equivalence class, so two kept taps
	// double-forward when any member of one tap's class reaches another
	// kept tap. Kept types have no ancestor pairs, so any double match must
	// route through a class member — scanning the kept types' classes is
	// sound. Fall back to the single residual tap rather than duplicate.
	if reg != nil && len(kept) > 1 {
		for _, k := range kept {
			for _, u := range reg.EquivSet(k) {
				hits := 0
				for _, k2 := range kept {
					if u.HasAncestor(k2) || reg.Satisfies(u, k2) {
						hits++
					}
				}
				if hits > 1 {
					return nil, true
				}
			}
		}
	}
	return kept, false
}

// reconcileTaps reconciles the mediator taps with demand: one batch
// subscription per type the interest table requires (desiredTapTypesLocked),
// or a single residual-tier tap when a wildcard interest forces it —
// typed taps ride the dispatch index's exact-pattern tier, so fan-out no
// longer drags the publisher's index-hit ratio. Demand is recomputed from
// the live interest table under the fabric lock on every pass (a caller's
// snapshot could be stale by the time it acts: a concurrent interest-add
// and interest-remove must never leave interested peers without a tap),
// and the loop runs until observation and state agree. Missing taps are
// established before superseded ones are cancelled, so a reshape (an
// ancestor interest subsuming a live descendant tap, or a wildcard
// fallback) never opens a window in which matching publishes reach no
// tap; the cost is that an event may transiently match both the old and
// the new tap during the handover and be forwarded twice — context
// streams are freshest-wins, so a rare duplicate at reconfiguration is
// preferred over silent loss. Every tap is filtered to locally produced
// events (Range == this Range), so ingested cross-range events — which
// keep their origin Range stamp — can never re-enter the forwarding
// path; no tap exists while no peer is interested, keeping the cost off
// Ranges nobody watches.
func (f *Fabric) reconcileTaps() {
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		types, wildcard := f.tapDemandLocked()
		want := make(map[ctxtype.Type]bool, len(types)+1)
		if wildcard {
			want[ctxtype.Wildcard] = true
		}
		for _, t := range types {
			want[t] = true
		}
		var add ctxtype.Type
		added := false
		for t := range want {
			if _, ok := f.taps[t]; !ok {
				add, added = t, true
				break
			}
		}
		var cancel []guid.GUID
		if !added {
			// Only after every wanted tap is live may the superseded ones
			// go: cancel-first would lose matching publishes in between.
			for t, id := range f.taps {
				if !want[t] {
					cancel = append(cancel, id)
					delete(f.taps, t)
				}
			}
		}
		f.mu.Unlock()
		for _, id := range cancel {
			_ = f.rng.Mediator().Cancel(id)
		}
		if !added {
			if len(cancel) > 0 {
				continue // re-check: demand may have shifted during cancels
			}
			return
		}
		flt := event.Filter{Range: f.rng.ID()}
		if add != ctxtype.Wildcard {
			flt.Type = add
		}
		rec, err := f.rng.Mediator().SubscribeBatch(f.node.ID(), flt, f.forwardLocal,
			mediator.SubOptions{QueueLen: tapQueueLen})
		if err != nil {
			return
		}
		f.mu.Lock()
		if _, dup := f.taps[add]; f.closed || dup {
			// Lost a race (concurrent establish, or closed meanwhile): ours
			// is surplus.
			f.mu.Unlock()
			_ = f.rng.Mediator().Cancel(rec.ID)
			if f.isClosed() {
				return
			}
			continue
		}
		f.taps[add] = rec.ID
		f.mu.Unlock()
		// Loop: more taps may be missing, or demand changed meanwhile.
	}
}

func (f *Fabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// forwardLocal is the mediator tap handler: every run of locally published
// events reaches the fan-out coalescer as one slice appended under one lock
// acquisition (the batch-fed remote fan-out edge).
func (f *Fabric) forwardLocal(events []event.Event) {
	if len(events) == 0 {
		return
	}
	if f.maxBatch > 1 {
		f.fan.AddAll(events)
		return
	}
	// Coalescing disabled: each event ships as its own batch message, in a
	// slice of its own — events belongs to the delivery loop (a shared run
	// or its reused buffer), and fanOut's batch outlives this call.
	for i := range events {
		f.fanOut([]event.Event{events[i]})
	}
}

// fanOut ships one already-bounded chunk of locally published events to
// every next hop that wants it — flat-announced interested peers plus, in
// hierarchy mode, the hierarchy links whose digest admits the batch —
// stamped with this fabric as origin and a hop set covering origin plus
// all recipients: the loop-suppression contract that lets relays extend
// coverage without ever duplicating or echoing.
func (f *Fabric) fanOut(events []event.Event) {
	// Interest matching runs against the lock-free snapshots: a wide table
	// of per-peer filters must not serialize every flush behind f.mu. Close
	// empties both snapshots, so a closed fabric matches nothing.
	self := f.node.ID()
	recips := f.forwardTargets(events, guid.NewSet(self))
	if len(recips) == 0 {
		return
	}
	// Events travel as one batch, header (origin, batch id, hop set)
	// included, shared across every recipient; nothing on this path is
	// JSON. The chunk ships as is: the coalescer never rewrites a chunk it
	// has handed to Send (flow.Config.Send), so the batch may keep it.
	via := make([]guid.GUID, 0, len(recips)+1)
	via = append(via, self)
	via = append(via, recips...)
	batch := &wire.NativeBatch{Events: events, Origin: self, ID: guid.New(guid.KindEvent), Via: via}
	for _, to := range recips {
		if f.node.Send(to, appEventBatch, nil, batch) == nil {
			f.BatchesForwarded.Inc()
			f.EventsForwarded.Add(uint64(len(events)))
			f.noteSubtreeForward(to)
		}
	}
}

// handleEventBatch ingests a scinet.event_batch message by its batch
// header: routed query results go to their waiting consumer; fan-out
// batches enter the local Range's batched dispatch path and are relayed to
// interested peers the hop set does not cover.
func (f *Fabric) handleEventBatch(d overlay.Delivery) {
	b := d.Batch
	if b == nil {
		return
	}
	if b.Origin == f.node.ID() {
		// A batch must never return to its origin.
		f.EchoesDropped.Inc()
		return
	}
	if !b.Query.IsNil() {
		f.mu.Lock()
		oq, ok := f.consumers[b.Query]
		f.mu.Unlock()
		if !ok {
			return
		}
		events, _ := nativeEvents(b, guid.Nil)
		oq.caa.ConsumeAll(events)
		// Credit reports for routed-query traffic coalesce per peer: every
		// (peer, query) coalescer at the sender tracks the same cumulative
		// figure, so one frame per window covers them all.
		f.noteQueryAck(d.Origin, len(b.Events))
		return
	}

	// Duplicate window: two relays may each cover the same fabric missing
	// from a sender's hop set; only the first copy of a batch id is
	// ingested.
	if !b.ID.IsNil() && !f.markSeen(b.ID) {
		f.DuplicatesDropped.Inc()
		return
	}

	// Events stamped with the local Range are echoes of our own production
	// regardless of what the header claims, and unstamped events cannot be
	// told apart from it; both are dropped for loop safety.
	events, echoes := nativeEvents(b, f.rng.ID())
	if echoes > 0 {
		f.EchoesDropped.Add(uint64(echoes))
	}
	// Ingest only what this fabric asked for: a coalesced chunk may carry
	// co-batched events matching none of our interests (whole batches
	// travel so relays can serve peers with different filters), and those
	// must not leak into local dispatch AddInterest never asked about.
	f.mu.Lock()
	local := f.localFiltersLocked()
	f.mu.Unlock()
	keep := keepMatching(events, local, f.rng.Types())
	if len(keep) > 0 {
		f.BatchesIngested.Inc()
		f.EventsIngested.Add(uint64(len(keep)))
		// Every kept event carries a foreign Range stamp (nativeEvents
		// dropped the rest), so there is nothing to stamp: the bus takes the
		// slice as a read-only view — it may be the received batch itself,
		// which relay below keeps reading. The ingest is attributed to the
		// fabric that shipped it (origin or relay): any drops it causes
		// count against that link, and the ack below reports them.
		_ = f.rng.Mediator().PublishAllOwnedFrom(d.Origin, keep)
	}
	// The reply hint: report this Range's flow credit to whichever fabric
	// shipped the batch, so its coalescer can throttle. Noted after the
	// ingest so the report covers this batch's own drops, not last
	// batch's; coalesced per peer so a relayed burst answers with one
	// frame, not one per message.
	f.noteFanAck(d.Origin, len(b.Events))
	// Relays match against the full batch: peers' filters differ from ours.
	relayed := 0
	if len(events) > 0 {
		relayed = f.relay(b, events)
	}
	// A hierarchy-routed batch that crossed this hop for nobody — matched
	// no local filter, relayed nowhere — is a digest false positive:
	// tolerated spillover, counted so E16 can bound its rate.
	if len(events) > 0 && len(keep) == 0 && relayed == 0 && f.hierarchyActive() {
		f.SpilloverDropped.Inc()
	}
}

// nativeEvents returns a received batch's valid events. When localRange is
// non-nil the fan-out loop-safety rules apply: events stamped with the
// local Range (echoes) or with no Range stamp at all (indistinguishable
// from local production) are dropped and counted in echoes; invalid events
// are dropped uncounted, so malformed events never read as routing loops. The batch is shared — the
// memory transport may hand one pointer to several local receivers, and
// relay re-sends it — so it is never written: when nothing is dropped, the
// common case, the result is b.Events itself, a read-only view; otherwise
// it is a copy made from the first dropped event onward.
//
//lint:hotpath
func nativeEvents(b *wire.NativeBatch, localRange guid.GUID) (events []event.Event, echoes int) {
	all := b.Events
	//lint:allow hotpath ValidateBatch formats an error only for an invalid event, which then takes the filtering branch
	cut, _ := event.ValidateBatch(all)
	for i := range all[:cut] {
		if isEcho(&all[i], localRange) {
			cut = i
			break
		}
	}
	if cut == len(all) {
		return all, 0
	}
	//lint:allow hotpath filtering branch: a batch with an event to drop needs its own slice; a clean batch takes none
	return dropFrom(all, cut, localRange)
}

// isEcho reports whether ingest must drop e under the loop-safety rules
// (never with a nil localRange).
func isEcho(e *event.Event, localRange guid.GUID) bool {
	return !localRange.IsNil() && (e.Range.IsNil() || e.Range == localRange)
}

// dropFrom is nativeEvents' filtering branch: all[:cut] is kept as is and
// all[cut] is the first event to drop.
func dropFrom(all []event.Event, cut int, localRange guid.GUID) (events []event.Event, echoes int) {
	events = make([]event.Event, cut, len(all)-1)
	copy(events, all[:cut])
	for rest := all[cut:]; len(rest) > 0; {
		n, err := event.ValidateBatch(rest)
		for i := range rest[:n] {
			if isEcho(&rest[i], localRange) {
				echoes++
				continue
			}
			events = append(events, rest[i])
		}
		if err == nil {
			break
		}
		rest = rest[n+1:] // skip the invalid event
	}
	return events, echoes
}

// keepMatching returns the events some filter accepts, in order: events
// itself when every event matches, otherwise a copy made from the first
// unmatched event onward. Like nativeEvents it never writes events.
func keepMatching(events []event.Event, filters []event.Filter, reg *ctxtype.Registry) []event.Event {
	var keep []event.Event
	copied := false
	for i := range events {
		match := matchesSome(filters, &events[i], reg)
		switch {
		case match && copied:
			keep = append(keep, events[i])
		case !match && !copied:
			copied = true
			keep = append(keep, events[:i]...)
		}
	}
	if !copied {
		return events
	}
	return keep
}

// matchesSome reports whether any filter accepts e.
func matchesSome(filters []event.Filter, e *event.Event, reg *ctxtype.Registry) bool {
	for i := range filters {
		if filters[i].MatchesIn(e, reg) {
			return true
		}
	}
	return false
}

// markSeen records a batch id in the bounded duplicate window, reporting
// whether it was new.
func (f *Fabric) markSeen(id guid.GUID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen.Has(id) {
		return false
	}
	f.seen.Add(id)
	if len(f.seenRing) < seenWindow {
		f.seenRing = append(f.seenRing, id)
		return true
	}
	f.seen.Remove(f.seenRing[f.seenPos])
	f.seenRing[f.seenPos] = id
	f.seenPos = (f.seenPos + 1) % seenWindow
	return true
}

// sendBatchAck sends a flow-credit report to the fabric that shipped an
// event_batch: the cumulative dispatch drops attributed to *that fabric's*
// traffic (its receive health on this link — never the Range-wide total,
// which would blame it for other links' floods), the congestion this
// fabric has itself observed downstream of its relays (the transitive
// half, fan-out path only), and an unknown queue depth — drops, not
// depth, are the signal a Range can honestly report, since its delivery
// rings are per subscription. (Routed-query credit takes sendQueryAck.)
func (f *Fabric) sendBatchAck(to guid.GUID, events int) error {
	msg := eventBatchAckMsg{
		Origin:       f.node.ID(),
		Events:       events,
		Dropped:      f.rng.DispatchDropsFor(to),
		DownstreamBy: f.downstreamByFor(to),
		QueueFree:    -1,
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil // unencodable: dropping the report is all we can do
	}
	err = f.node.Send(to, appEventBatchAck, payload, nil)
	if err == nil {
		f.AcksSent.Inc()
	}
	return err
}

// DownstreamDrops reports the congestion this fabric has observed
// downstream of its forwarding: the sum over all per-origin accounts (max
// cumulative drops each observing fabric has reported, directly or via
// relays) — the transitive half of the credit loop that lets a multi-hop
// chain throttle at its origin.
func (f *Fabric) DownstreamDrops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total uint64
	for _, v := range f.downObs {
		total += v
	}
	return total
}

// downstreamByFor snapshots the accounts reported to one peer, excluding
// the account that peer itself observed — telling a fabric about its own
// receivers' drops would double-count them. The excluded key set per
// recipient is fixed and every account is monotone, so the accounts' sum is
// monotone per recipient.
func (f *Fabric) downstreamByFor(peer guid.GUID) map[guid.GUID]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out map[guid.GUID]uint64
	for o, v := range f.downObs {
		if o == peer {
			continue
		}
		if out == nil {
			out = make(map[guid.GUID]uint64, len(f.downObs))
		}
		out[o] = v
	}
	return out
}

// downstreamFor returns just the sum of downstreamByFor's accounts,
// allocation-free — it runs in the ack coalescer's Figure callback on
// every ingested fan-out message.
func (f *Fabric) downstreamFor(peer guid.GUID) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum uint64
	for o, v := range f.downObs {
		if o != peer {
			sum += v
		}
	}
	return sum
}

// noteFanAck records an owed fan-path credit report toward one peer
// through its flow.AckCoalescer: the leading report and reports whose
// combined figure moved leave promptly (one per ack window even under a
// sustained drop storm — the figure is cumulative), while no-news reports
// wait out a fallback stretched past the deepest throttled flush cycle
// (flow's maxPenalty of 16 × the delay ceiling) — an all-clear decays the
// sender's penalty, so answering a relayed burst with per-message
// "nothing new" frames would wind the throttle down between the bursts
// still causing congestion downstream.
func (f *Fabric) noteFanAck(to guid.GUID, events int) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	a := f.facks[to]
	if a == nil {
		a = flow.NewAckCoalescer(flow.AckConfig{
			Clock:      f.clk,
			Window:     f.ackWindow,
			IdleWindow: f.ackWindow * fanAckIdleFactor,
			Figure: func() uint64 {
				return f.rng.DispatchDropsFor(to) + f.downstreamFor(to)
			},
			Send: func(events int) bool {
				return f.sendBatchAck(to, events) == nil
			},
		})
		f.facks[to] = a
	}
	f.mu.Unlock()
	a.Note(events)
}

// fanAckIdleFactor stretches the no-news ack fallback beyond the deepest
// throttled flush cycle; see noteFanAck.
const fanAckIdleFactor = 20

// handleBatchAck feeds a receiver's credit report into the coalescer that
// serves it: the per-(peer, query) queue for routed-query acks, or the
// shared fan-out queue — via a per-peer baseline, since one coalescer
// multiplexes every interested peer — for fan-out acks. The baseline
// tracks the *combined* figure (the peer's own attributed drops plus the
// congestion it reports from further downstream; both monotone per
// reporter, so their sum is too): a delta from either throttles here, and
// the report's per-origin accounts are folded into this fabric's own
// downstream table so the next ack upstream carries them — a 3-hop
// collapse reaches the origin in two ack round trips. A combined figure
// below the baseline means the peer restarted under a reused GUID; the
// baseline resets so drop detection resumes immediately instead of
// freezing until the fresh counters re-pass the stale high-water mark.
func (f *Fabric) handleBatchAck(d overlay.Delivery) {
	var msg eventBatchAckMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	combined := msg.Dropped
	for _, v := range msg.DownstreamBy {
		combined += v
	}
	if msg.QueryAck {
		// One cumulative routed-query frame credits every coalescer toward
		// that peer: they all track the same per-peer drop figure.
		f.mu.Lock()
		var qs []*flow.Coalescer
		for k, q := range f.queues {
			if k.peer == msg.Origin {
				qs = append(qs, q)
			}
		}
		f.mu.Unlock()
		for _, q := range qs {
			q.UpdateCredit(combined, msg.QueueFree)
		}
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	last, seen := f.peerDrops[msg.Origin]
	f.peerDrops[msg.Origin] = combined
	var delta uint64
	if seen && combined > last {
		delta = combined - last
	}
	// Fold what this report teaches into the per-origin downstream
	// accounts. The peer's own receive-side figure is authoritative for
	// its account — set outright, so an adjacent restarted peer's reset
	// counter propagates one hop as a regression (which receivers
	// re-baseline on) instead of freezing behind a stale max. Accounts the
	// peer merely relays are merged by max: idempotent, so a figure
	// arriving twice — two relays, a cycle, or our own account echoed back
	// (skipped outright) — converges instead of amplifying. The max-merge
	// does mean a restarted sink's reset account un-freezes only at its
	// direct upstream until the fresh counter re-passes the old maximum;
	// versioned accounts (incarnation numbers) would lift that and are on
	// the roadmap — hop-by-hop credit keeps throttling correctly
	// meanwhile, since every adjacent pair exchanges live Dropped figures.
	if _, ok := f.downObs[msg.Origin]; ok || msg.Dropped > 0 {
		f.downObs[msg.Origin] = msg.Dropped
	}
	self := f.node.ID()
	for o, v := range msg.DownstreamBy {
		if o == self {
			continue
		}
		if v > f.downObs[o] {
			f.downObs[o] = v
		}
	}
	f.mu.Unlock()
	f.fan.NoteCredit(delta, msg.QueueFree)
}

// relay re-forwards an ingested batch to next hops outside its hop set —
// interested peers the origin did not know, and in hierarchy mode the
// links whose digest admits the batch (up toward the parent, down into
// matching subtrees, across to matching peer super-peers) — extending the
// hop set with every new recipient. events are the batch's valid events,
// matched against peers' filters. The relayed copies share one new batch
// that keeps the received batch's events, origin and id under the extended
// hop set; the received batch itself is shared and never edited. It
// returns the number of next hops taken (zero means the batch terminated
// here).
func (f *Fabric) relay(in *wire.NativeBatch, events []event.Event) int {
	via := guid.NewSet(in.Via...)
	via.Add(in.Origin)
	via.Add(f.node.ID())
	// Matching runs against the lock-free snapshots, same as fanOut: relays
	// sit on the ingest path and must not serialize behind f.mu.
	extra := f.forwardTargets(events, via)
	if len(extra) == 0 {
		return 0
	}
	for _, id := range extra {
		via.Add(id)
	}
	// The id is preserved, so receivers can dedup relayed copies.
	out := &wire.NativeBatch{Events: in.Events, Origin: in.Origin, ID: in.ID, Via: via.Members()}
	// Forwarding honors this fabric's own credit state: while the fan-out
	// penalty is engaged, relayed batches queue into a bounded drop-oldest
	// backlog per peer instead of amplifying the origin's burst at line
	// rate into receivers already reporting collapse.
	for _, to := range extra {
		f.relayTo(to, out)
	}
	return len(extra)
}

// matchAny reports whether any filter accepts any event, using the Range's
// type registry for semantic equivalence.
func matchAny(filters []event.Filter, events []event.Event, rng *server.Range) bool {
	reg := rng.Types()
	for j := range events {
		if matchesSome(filters, &events[j], reg) {
			return true
		}
	}
	return false
}

// ----- outbound coalescers -----

// sendQueryEvents sends a run of result events for one forwarded query
// back to its origin fabric: through the per-(peer, query) coalescer when
// batching is enabled, as one-event batches otherwise.
func (f *Fabric) sendQueryEvents(to, qid guid.GUID, events []event.Event) {
	if f.maxBatch <= 1 {
		for i := range events {
			f.sendQueryBatch(to, qid, events[i:i+1])
		}
		return
	}
	if q := f.queueFor(to, qid); q != nil {
		q.AddAll(events)
	}
}

// sendQueryBatch ships one bounded chunk as a scinet.event_batch message.
// The chunk aliases the caller's buffer (the coalescer's, or the proxy's
// delivery run), so it is copied before escaping with the message.
func (f *Fabric) sendQueryBatch(to, qid guid.GUID, events []event.Event) {
	if len(events) == 0 {
		return
	}
	owned := make([]event.Event, len(events))
	copy(owned, events)
	if f.node.Send(to, appEventBatch, nil, &wire.NativeBatch{Events: owned, Origin: f.node.ID(), Query: qid}) == nil {
		f.BatchesForwarded.Inc()
		f.EventsForwarded.Add(uint64(len(owned)))
	}
}

// queueFor returns the (peer, query) coalescer, creating it on first use
// (nil once the fabric has closed). Like the fan-out queue it reports into
// the Range's shared flow stats, so SCINET backpressure reads out of the
// same remote.backpressure.* gauges as the Range Service's.
func (f *Fabric) queueFor(to, qid guid.GUID) *flow.Coalescer {
	key := queueKey{peer: to, qid: qid}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	q, ok := f.queues[key]
	if !ok {
		q = flow.New(flow.Config{
			Clock:    f.clk,
			MaxBatch: f.maxBatch,
			MaxDelay: f.maxDelay,
			Adaptive: f.adaptive,
			Fair:     f.rng.FairFlush(),
			Stats:    f.rng.FlowStats(),
			Send:     func(batch []event.Event) { f.sendQueryBatch(to, qid, batch) },
		})
		f.queues[key] = q
	}
	return q
}

// ----- peer lifecycle -----

// peerGone tears down every piece of per-peer state after a fabric departs
// (announced leave, or the overlay forgetting an unresponsive node): its
// coverage and interests, the origin-side consumers of queries it served,
// the serving-side queries it originated (with their proxy CAAs), and its
// outbound coalescers.
func (f *Fabric) peerGone(peer guid.GUID) {
	f.mu.Lock()
	if f.closed || peer == f.node.ID() {
		f.mu.Unlock()
		return
	}
	delete(f.coverage, peer)
	if _, ok := f.interests[peer]; ok {
		delete(f.interests, peer)
		f.refreshInterestSnapLocked()
	}
	delete(f.peerDrops, peer)
	delete(f.sentGen, peer)
	delete(f.interestGen, peer)
	// Hierarchy state for the departed peer: its digests no longer route.
	hierChanged := false
	if _, ok := f.childDigests[peer]; ok {
		delete(f.childDigests, peer)
		hierChanged = true
	}
	if _, ok := f.peerDigests[peer]; ok {
		delete(f.peerDigests, peer)
		hierChanged = true
	}
	if f.hierSet && peer == f.hier.Parent && f.upDigest != nil {
		// The parent's downward summary died with it: route upward
		// conservatively until a parent speaks again.
		f.upDigest = nil
		hierChanged = true
	}
	delete(f.digestGens, peer)
	delete(f.digestSent, peer)
	delete(f.childFwd, peer)
	dcoal := f.digestCoal[peer]
	delete(f.digestCoal, peer)
	if hierChanged {
		f.refreshHierSnapLocked()
	}
	// The departed peer's downstream account (downObs) is deliberately
	// retained: figures reported to the remaining peers must stay
	// monotone, and max-merge makes a stale account harmless.
	ack := f.facks[peer]
	delete(f.facks, peer)
	qack := f.qacks[peer]
	delete(f.qacks, peer)
	relay := f.relays[peer]
	delete(f.relays, peer)
	for qid, oq := range f.consumers {
		if oq.target == peer {
			delete(f.consumers, qid)
		}
	}
	var gone []guid.GUID
	for qid, sq := range f.served {
		if sq.origin == peer {
			gone = append(gone, qid)
		}
	}
	var drop []*flow.Coalescer
	for k, q := range f.queues {
		if k.peer == peer {
			drop = append(drop, q)
			delete(f.queues, k)
		}
	}
	f.mu.Unlock()

	if ack != nil {
		ack.Stop()
	}
	if qack != nil {
		qack.Stop()
	}
	if relay != nil {
		relay.discard()
	}
	if dcoal != nil {
		dcoal.Stop()
	}
	for _, q := range drop {
		q.Discard()
	}
	guid.Sort(gone)
	for _, qid := range gone {
		f.dropServed(qid)
	}
	if hierChanged {
		// Remaining links' summaries just changed (a subtree vanished).
		f.touchDigestAnnouncements()
	}
	f.reconcileTaps()
}

// ----- fleet stats -----

// handleStats answers a fleet-stats probe with this Range's dispatch.stats.
func (f *Fabric) handleStats(d overlay.Delivery) {
	var msg statsQueryMsg
	if json.Unmarshal(d.Payload, &msg) != nil {
		return
	}
	payload, err := json.Marshal(statsResultMsg{
		Corr:  msg.Corr,
		Name:  f.rng.Name(),
		Stats: f.rng.StatsMap(),
	})
	if err != nil {
		return
	}
	_ = f.node.Send(msg.Origin, appStatsResult, payload, nil)
}

// FleetDispatchStats collects dispatch.stats from every known fabric and
// aggregates them with this Range's own snapshot. Peers that do not answer
// within timeout (default RequestTimeout) are left out; the rollup reports
// how many Ranges it covers.
func (f *Fabric) FleetDispatchStats(timeout time.Duration) (*FleetStats, error) {
	if timeout <= 0 {
		timeout = RequestTimeout
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.mu.Unlock()

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
		payload, err := json.Marshal(statsQueryMsg{Origin: f.node.ID(), Corr: corr})
		if err == nil && f.node.Send(peer, appStats, payload, nil) == nil {
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
	if hits, scanned := fs.Totals["index_hits"], fs.Totals["residual_scanned"]; hits+scanned > 0 {
		fs.Totals["index_hit_ratio"] = hits / (hits + scanned)
	} else {
		fs.Totals["index_hit_ratio"] = 1
	}
	sort.Slice(fs.PerRange, func(i, j int) bool { return fs.PerRange[i].Name < fs.PerRange[j].Name })
	return fs, nil
}

// Names returns the known range names keyed by fabric node, for
// diagnostics, sorted output.
func (f *Fabric) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.coverage))
	for _, c := range f.coverage {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// Close flushes outbound coalescers, announces departure so peers tear
// down per-peer state, releases every served query (removing their proxy
// CAAs from the Range), cancels the mediator tap and detaches the overlay
// node.
func (f *Fabric) Close() error {
	// Flush while the fabric is still open: the fan-out queue's recipients
	// come from the interest snapshot, which the closed transition empties,
	// so the pending batches must leave before it. (Fan-out
	// events published concurrently with Close may land after this flush;
	// they are dropped with the rest of the closing fabric's state.)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	flushed := make(map[*flow.Coalescer]bool, len(f.queues)+1)
	queues := make([]*flow.Coalescer, 0, len(f.queues)+1)
	for _, q := range f.queues {
		queues = append(queues, q)
		flushed[q] = true
	}
	queues = append(queues, f.fan)
	flushed[f.fan] = true
	f.mu.Unlock()
	for _, q := range queues {
		q.Flush()
	}

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
	// Routed-query queues created between the open-phase flush and this
	// transition (queueFor refuses only once closed is set) join the sweep:
	// their pending events still go out below and their delay timers are
	// disarmed rather than left to fire against a closed node.
	late := make([]*flow.Coalescer, 0)
	for _, q := range f.queues {
		if !flushed[q] {
			late = append(late, q)
			queues = append(queues, q)
		}
	}
	f.queues = make(map[queueKey]*flow.Coalescer)
	served := make([]guid.GUID, 0, len(f.served))
	for qid := range f.served {
		served = append(served, qid)
	}
	f.consumers = make(map[guid.GUID]*outQuery)
	f.interests = make(map[guid.GUID][]event.Filter)
	f.refreshInterestSnapLocked() // fanOut/relay match nothing once closed
	acks := make([]*flow.AckCoalescer, 0, len(f.facks)+len(f.qacks))
	for _, a := range f.facks {
		acks = append(acks, a)
	}
	f.facks = make(map[guid.GUID]*flow.AckCoalescer)
	for _, a := range f.qacks {
		acks = append(acks, a)
	}
	f.qacks = make(map[guid.GUID]*flow.AckCoalescer)
	relays := make([]*relayQueue, 0, len(f.relays))
	for _, rq := range f.relays {
		relays = append(relays, rq)
	}
	f.relays = make(map[guid.GUID]*relayQueue)
	dcoals := make([]*flow.UpdateCoalescer, 0, len(f.digestCoal))
	for _, c := range f.digestCoal {
		dcoals = append(dcoals, c)
	}
	f.digestCoal = make(map[guid.GUID]*flow.UpdateCoalescer)
	var hierLinks []guid.GUID
	hierParent := f.hier.Parent
	hierPeers := append([]guid.GUID(nil), f.hier.Peers...)
	if f.hierOn {
		hierLinks = f.hierLinkIDsLocked()
	}
	f.hierOn = false
	if f.hierSet {
		f.hierSnap.Store(&hierView{}) // inactive: hierarchy routing matches nothing
	}
	f.mu.Unlock()
	for _, a := range acks {
		a.Stop()
	}
	for _, rq := range relays {
		rq.discard()
	}
	for _, c := range dcoals {
		c.Stop()
	}
	// Withdraw this fabric's digests so hierarchy neighbors stop routing
	// through it at once instead of waiting for the overlay to forget it.
	if len(hierLinks) > 0 {
		self := f.node.ID()
		isPeer := make(map[guid.GUID]bool, len(hierPeers))
		for _, p := range hierPeers {
			isPeer[p] = true
		}
		for _, to := range hierLinks {
			msg := digestMsg{Owner: self, Remove: true}
			switch {
			case to == hierParent:
				msg.Child = true
			case isPeer[to]:
				msg.Peer = true
			default:
				msg.Down = true
			}
			if payload, err := json.Marshal(msg); err == nil {
				_ = f.node.Send(to, appDigest, payload, nil)
			}
		}
	}

	guid.Sort(taps)
	for _, id := range taps {
		_ = f.rng.Mediator().Cancel(id)
	}
	for _, q := range late {
		q.Flush()
	}
	for _, q := range queues {
		q.Discard()
	}
	if payload, err := json.Marshal(leaveMsg{Origin: f.node.ID()}); err == nil {
		for _, peer := range f.node.Known() {
			_ = f.node.Send(peer, appLeave, payload, nil)
		}
	}
	guid.Sort(served)
	for _, qid := range served {
		f.dropServed(qid)
	}
	return f.node.Close()
}
