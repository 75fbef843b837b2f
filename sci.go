// Package sci is the public API of the Strathclyde Context Infrastructure
// (SCI) reproduction: a middleware for generalised context management after
// Glassey et al., "Towards a Middleware for Generalised Context
// Management" (Middleware 2003 workshop on Middleware for Pervasive and
// Ad Hoc Computing).
//
// # Architecture
//
// SCI is organised into two layers. The lower layer is the Range: an area
// described in logical and/or physical terms, governed by a Context Server
// that manages Context Entities (CEs — producers/consumers of typed
// context events), Context Aware Applications (CAAs — query submitters),
// and the Context Utilities (Registrar, Profile Manager, Event Mediator,
// Query Resolver, Location Service, Range Service). The upper layer is the
// SCINET: an overlay network of Ranges addressed by GUID, across which
// queries are forwarded to the Range covering the queried area.
//
// # Quick start
//
//	rng := sci.NewRange(sci.RangeConfig{Name: "lab"})
//	defer rng.Close()
//
//	thermo := sci.NewTemperatureSensor("lab-probe", sci.Ref{}, 294, 2, 1, nil)
//	_ = rng.AddEntity(thermo)
//
//	app := sci.NewCAA("dashboard", func(e sci.Event) {
//	    fmt.Println("reading:", e.Payload["value"])
//	}, nil)
//	_ = rng.AddApplication(app)
//
//	q := sci.NewQuery(app.ID(), sci.What{Pattern: sci.TemperatureKelvin}, sci.ModeSubscribe)
//	_, _ = rng.Submit(q)
//	_ = thermo.Tick() // a reading flows to the dashboard
//
// See examples/ for complete programs, including the paper's CAPA printing
// scenario.
package sci

import (
	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/eventbus"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/mediator"
	"sci/internal/mobility"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/scinet"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/sim"
	"sci/internal/transport"
)

// Identity.
type (
	// GUID is the 128-bit identifier every SCI entity carries.
	GUID = guid.GUID
	// Kind classifies an entity GUID.
	Kind = guid.Kind
)

// Entity kinds.
const (
	KindPerson      = guid.KindPerson
	KindSoftware    = guid.KindSoftware
	KindPlace       = guid.KindPlace
	KindDevice      = guid.KindDevice
	KindArtifact    = guid.KindArtifact
	KindApplication = guid.KindApplication
	KindEntity      = guid.KindEntity
)

// NewGUID mints a fresh identifier.
func NewGUID(k Kind) GUID { return guid.New(k) }

// ParseGUID parses the canonical "kind:hex32" form.
func ParseGUID(s string) (GUID, error) { return guid.Parse(s) }

// Context types and events.
type (
	// ContextType names a kind of contextual information.
	ContextType = ctxtype.Type
	// TypeRegistry holds types, equivalences and converters.
	TypeRegistry = ctxtype.Registry
	// Event is one typed context observation.
	Event = event.Event
	// EventFilter selects events.
	EventFilter = event.Filter
)

// Core context types.
const (
	LocationPosition     = ctxtype.LocationPosition
	LocationSighting     = ctxtype.LocationSighting
	LocationSightingDoor = ctxtype.LocationSightingDoor
	LocationSightingWLAN = ctxtype.LocationSightingWLAN
	PathRoute            = ctxtype.PathRoute
	TemperatureCelsius   = ctxtype.TemperatureCelsius
	TemperatureKelvin    = ctxtype.TemperatureKelvin
	PrinterStatus        = ctxtype.PrinterStatus
	EntityArrival        = ctxtype.EntityArrival
	EntityDeparture      = ctxtype.EntityDeparture
)

// NewTypeRegistry returns a registry pre-loaded with the core vocabulary.
func NewTypeRegistry() *TypeRegistry { return ctxtype.NewRegistry() }

// Location.
type (
	// Ref is the intermediate location language (geometric, hierarchical
	// and/or topological).
	Ref = location.Ref
	// PlaceID names a topological place.
	PlaceID = location.PlaceID
	// LocationPath is a hierarchical containment path.
	LocationPath = location.Path
	// Place is ground truth about one place.
	Place = location.Place
	// Link connects two places.
	Link = location.Link
	// LocationMap is a deployment area's ground truth.
	LocationMap = location.Map
	// Route is a computed path.
	Route = location.Route
)

// Location constructors.
var (
	AtPlace = location.AtPlace
	AtPath  = location.AtPath
	AtPoint = location.AtPoint
	NewMap  = location.NewMap
)

// Profiles.
type (
	// Profile is a Context Entity's metadata.
	Profile = profile.Profile
	// Advertisement describes a CE's well-known service interface.
	Advertisement = profile.Advertisement
)

// Queries (the What/Where/When/Which/Mode model of the paper's Fig 6).
type (
	Query     = query.Query
	What      = query.What
	Where     = query.Where
	When      = query.When
	Which     = query.Which
	QueryMode = query.Mode
)

// Query modes.
const (
	ModeProfile       = query.ModeProfile
	ModeSubscribe     = query.ModeSubscribe
	ModeOnce          = query.ModeOnce
	ModeAdvertisement = query.ModeAdvertisement
)

// Which criteria and implicit Where expressions.
const (
	CriterionClosest        = query.CriterionClosest
	CriterionShortestQueue  = query.CriterionShortestQueue
	CriterionHighestQuality = query.CriterionHighestQuality
	ImplicitClosest         = query.ImplicitClosest
	ImplicitSameRoom        = query.ImplicitSameRoom
	ImplicitSameFloor       = query.ImplicitSameFloor
)

// NewQuery builds a query with a fresh id.
var NewQuery = query.New

// ParseQueryText parses the compact text query form.
var ParseQueryText = query.ParseText

// Components.
type (
	// CE is the Context Entity interface.
	CE = entity.CE
	// CAA is the Context Aware Application base.
	CAA = entity.CAA
	// ObjLocationCE interprets sightings into positions.
	ObjLocationCE = entity.ObjLocationCE
	// PathCE computes routes between two watched subjects.
	PathCE = entity.PathCE
)

// Component constructors.
var (
	NewCAA           = entity.NewCAA
	NewFuncCE        = entity.NewFuncCE
	NewObjLocationCE = entity.NewObjLocationCE
	NewPathCE        = entity.NewPathCE
	NewAggregatorCE  = entity.NewAggregatorCE
	NewInterpreterCE = entity.NewInterpreterCE
)

// Simulated sensors (the hardware substitution layer).
type (
	DoorSensor        = sensor.DoorSensor
	BaseStation       = sensor.BaseStation
	TemperatureSensor = sensor.TemperatureSensor
	Printer           = sensor.Printer
)

// Sensor constructors.
var (
	NewDoorSensor        = sensor.NewDoorSensor
	NewBaseStation       = sensor.NewBaseStation
	NewTemperatureSensor = sensor.NewTemperatureSensor
	NewPrinter           = sensor.NewPrinter
)

// Range (Context Server) — the lower layer.
type (
	// Range is one administrative area with its Context Server. Events are
	// injected one at a time with Publish or, amortising dispatch-index
	// resolution and queue locking across a burst, in batches with
	// PublishAll.
	Range = server.Range
	// RangeConfig parameterises NewRange, including BatchMaxEvents /
	// BatchMaxDelay: every remote delivery — Range Service endpoints,
	// fabric fan-out and routed-query results — leaves through one
	// outbound coalescer per destination, where up to BatchMaxEvents
	// events ride one batch message, flushed after at most BatchMaxDelay.
	// A BatchMaxEvents of 0 or 1 means one-event batches under the same
	// flow control.
	RangeConfig = server.Config
	// QueryResult is the synchronous answer to Submit. Its Profiles and
	// Advertisement are the Range's stored records themselves, shared with
	// every other reader: read them, and Clone one before changing it.
	QueryResult = server.Result
)

// NewRange builds and starts a Range.
var NewRange = server.New

// Event dispatch introspection. The Event Mediator routes publishes through
// a sharded two-tier subscription index; these snapshots (via
// Range.DispatchStats and Range.Mediator) expose its throughput, drops and
// index effectiveness. Every loss is also charged to its origin in one of
// three ledgers of one type: Range.Drops (each event discarded from a full
// subscription queue, charged to the endpoint whose traffic caused it; its
// For(endpoint) is the figure remote flow-credit acks carry),
// Range.QuotaRejects and Range.FlowStats().Shed. Range.StatsMap renders
// each as its total K (eventbus.dropped, eventbus.quota.rejected,
// remote.backpressure.shed) plus K.from.<origin> for the top origins and
// K.from.other for the rest.
type (
	// DispatchStats counts bus-wide publishes, deliveries, drops and
	// index-hit/residual-scan work.
	DispatchStats = eventbus.Stats
	// DispatchShardStats is one dispatch lock stripe's counters.
	DispatchShardStats = eventbus.ShardStats
)

// DefaultBatchMaxDelay is the outbound coalescer's flush deadline when
// RangeConfig.BatchMaxDelay is not positive.
const DefaultBatchMaxDelay = server.DefaultBatchMaxDelay

// Flow control — the unified outbound coalescing layer (internal/flow)
// shared by the Range Service's per-endpoint delivery queues and the
// SCINET fabric's per-peer and fan-out queues.
type (
	// FlowControlStats is the per-Range sink of outbound flow-control
	// accounting — flushes, receiver-reported drops, throttle state —
	// reached via Range.FlowStats and surfaced as the
	// remote.backpressure.* gauges through Range.StatsMap and the
	// dispatch.stats infrastructure call (and, fleet-wide, through
	// Fabric.FleetDispatchStats).
	FlowControlStats = flow.SharedStats
	// PublisherQuota is the per-publisher enforcement config
	// (RangeConfig.PublisherQuota): token-bucket admission at the publish
	// edge (Rate events/s up to Burst per source, shed-and-count or
	// Reject with ErrOverQuota) and weighted-fair flush shares (Weights)
	// inside the outbound coalescers, so one flooding tenant saturates
	// its own share of a Range and its links rather than its neighbours'.
	// Rejections and targeted sheds are charged per source
	// (Range.QuotaRejects, Range.FlowStats().Shed) and surfaced as the
	// eventbus.quota.rejected.from.* / remote.backpressure.shed.from.*
	// gauges through Range.StatsMap.
	PublisherQuota = server.PublisherQuota
	// OverQuotaError carries the offending publisher and rejected count
	// when PublisherQuota.Reject refuses a publish; it unwraps to
	// ErrOverQuota.
	OverQuotaError = eventbus.OverQuotaError
)

// ErrOverQuota is the sentinel matched by errors.Is for publishes refused
// under PublisherQuota.Reject.
var ErrOverQuota = eventbus.ErrOverQuota

// SCINET — the upper layer.
type (
	// Fabric is a Range's presence in the SCINET overlay. Beyond query
	// forwarding it provides cross-range event fan-out: AddInterest /
	// SubscribeRemote announce an event filter to the SCINET, and matching
	// events published in sibling Ranges arrive in coalesced
	// scinet.event_batch overlay messages (loop-suppressed via an
	// origin-fabric id and hop set), ingested through Range.PublishAll.
	// Flow credit crosses the overlay in both directions: receivers ack
	// with the drops the sender's traffic caused (per-publisher
	// attribution), relays fold the congestion they observe downstream
	// into the acks they send upstream (Fabric.DownstreamDrops), so a
	// multi-hop chain throttles at its origin (Fabric.FanoutPenalty).
	Fabric = scinet.Fabric
	// Subscription is a live event subscription record (returned by
	// Fabric.SubscribeRemote; cancel through Fabric.UnsubscribeRemote so
	// the announced interest is withdrawn with it).
	Subscription = mediator.Record
	// FleetStats is the SCINET-wide dispatch.stats rollup returned by
	// Fabric.FleetDispatchStats.
	FleetStats = scinet.FleetStats
	// FleetRangeStats is one Range's snapshot inside a FleetStats rollup.
	FleetRangeStats = scinet.RangeStats
	// HierarchyConfig attaches a Fabric to the super-peer interest
	// hierarchy (Fabric.SetHierarchy): leaves summarize their interests
	// into Bloom/prefix digests announced only to their super-peer, and
	// super-peers aggregate and route event batches along the tree, so
	// grid-scale fleets keep per-fabric interest state and per-publish
	// message cost sublinear in fleet size. Auto-flat below MinFleet.
	HierarchyConfig = scinet.HierarchyConfig
)

// NewFabric attaches a Range to a SCINET over a transport network.
var NewFabric = scinet.NewFabric

// Transports.
type (
	// Network moves wire messages between GUID-addressed endpoints.
	Network = transport.Network
	// MemoryNetwork is the in-process simulation network.
	MemoryNetwork = transport.Memory
	// TransportConfig selects and parameterises a transport backend for
	// NewNetwork: Backend names a registered builder ("memory", "tcp").
	// Every TCP connection carries the binary encoding and opens with a
	// hello stating each side's protocol version; a peer of another version
	// is a connect error, never a downgrade. The in-process memory network
	// has no wire.
	TransportConfig = transport.Config
)

// NewNetwork builds a transport from a declarative config via the backend
// factory (empty Backend means "memory"). Additional backends can be
// registered with transport.Register.
var NewNetwork = transport.New

// NewMemoryNetwork builds an in-process network (zero latency by default).
func NewMemoryNetwork() *MemoryNetwork {
	return transport.NewMemory(transport.MemoryConfig{})
}

// NewTCPNetwork builds a TCP network with its own directory.
func NewTCPNetwork() *transport.TCP { return transport.NewTCP(nil) }

// Simulation world.
type (
	// World is the simulated ground truth for mobility.
	World = mobility.World
	// Actor is a mobile person or device.
	Actor = mobility.Actor
	// Building is a generated synthetic building.
	Building = sim.Building
)

// Simulation constructors.
var (
	NewWorld    = mobility.NewWorld
	NewBuilding = sim.NewBuilding
)

// Clock is the injectable time source.
type Clock = clock.Clock

// RealClock returns the system clock.
func RealClock() Clock { return clock.Real() }

// NewManualClock returns a deterministic test clock.
var NewManualClock = clock.NewManual
