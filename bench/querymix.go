package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/sim"
)

// query-mix: one Range over a 4-floor × 16-room building. Two closed-loop
// clients replay a fixed 10-query cycle; every cycle is issued under the
// next of the client's application identities, each anchored in a different
// room, so a run averages the closest-printer ranking over every room of
// the building instead of hanging on two of them.
const (
	qmFloors     = 4
	qmRooms      = 16
	qmPrinters   = 16
	qmClients    = 2
	qmStratum    = qmRooms * qmFloors / qmPrinters // rooms per printer stratum
	qmPerFloor   = qmPrinters / qmFloors
	qmIdentities = qmFloors * qmRooms / qmClients // application identities per client
)

// Query kinds of the cycle.
const (
	qmProfile = iota
	qmAdvert
	qmLocation
	qmTemperature
	qmKinds
)

// qmCycle is the 10-query cycle: 2 profile, 3 advertisement, 3
// location.position subscribe, 2 same-floor temperature subscribe. The
// issue's 3/3/2/2 split puts the median exactly on the boundary between two
// modes an order of magnitude apart, where it flips between them from run
// to run; with 2/3/3/2 the median sits inside the location subscribes (the
// aggregation path) and the 99th percentile inside the advertisements (the
// discovery path).
var qmCycle = [10]int{
	qmProfile, qmAdvert, qmLocation, qmTemperature, qmAdvert,
	qmLocation, qmProfile, qmAdvert, qmLocation, qmTemperature,
}

type qmIdentity struct {
	caa     *entity.CAA
	room    location.PlaceID
	closest guid.GUID // brute-force closest idle printer from room
}

type qmClient struct {
	ids       []qmIdentity
	lat       windowed
	byKind    [qmKinds]hist
	teardown  hist
	attempted uint64
	failures  uint64
	firstErr  error
}

type qmInstance struct {
	rng      *server.Range
	building *sim.Building
	clients  [qmClients]*qmClient
	printers []*entity.Base

	wantProfiles []guid.GUID // FindProviders(door sightings) evaluated at set-up
	baseActive   int
	baseSubs     int

	win     atomic.Int32 // measurement window, or notMeasuring
	answers atomic.Uint64
	quit    chan struct{}
	gen     sync.WaitGroup

	layerCounts map[string]float64
	lat         windowed
}

var idleConstraint = map[string]string{"status": string(sensor.PrinterIdle)}

func queryMixWorkload(def workloadDef) workload {
	return workload{
		workloadDef: def,
		setup:       func(seed int64, _ *tracer) (instance, error) { return setupQueryMix(seed) },
	}
}

// printerProfile is what sensor.NewPrinter advertises. The benchmark builds
// its printers on entity.NewBaseWithID instead, because the resolver ranks
// candidates with an insertion sort over GUID-ordered input: with random
// GUIDs the number of TravelDistance calls per query, and so the workload's
// cost, would change by a fifth from run to run with nothing changed.
func printerProfile(name string, at location.PlaceID, state sensor.PrinterState) profile.Profile {
	return profile.Profile{
		Name:     name,
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: location.AtPlace(at),
		Attributes: map[string]string{
			"kind":   "printer",
			"status": string(state),
			"queue":  "0",
		},
		Advertisement: &profile.Advertisement{
			Interface:  "printer",
			Operations: []string{"submit", "status", "complete"},
		},
	}
}

func setupQueryMix(seed int64) (*qmInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	b, err := sim.NewBuilding(qmFloors, qmRooms)
	if err != nil {
		return nil, err
	}
	q := &qmInstance{
		building: b,
		rng:      server.New(server.Config{Name: "tower", Places: b.Map, Coverage: "campus/tower"}),
		quit:     make(chan struct{}),
	}
	q.win.Store(notMeasuring)
	fail := func(err error) (*qmInstance, error) {
		q.rng.Close()
		return nil, err
	}
	for room, door := range b.DoorOf {
		if err := q.rng.AddEntity(sensor.NewDoorSensor(door, location.AtPlace(room), nil)); err != nil {
			return fail(err)
		}
	}
	if err := q.rng.AddEntity(entity.NewObjLocationCE(b.Map, nil)); err != nil {
		return fail(err)
	}
	if err := q.rng.AddEntity(entity.NewPathCE(b.Map, nil)); err != nil {
		return fail(err)
	}
	// One printer and one thermometer per stratum of four adjacent rooms; on
	// floor f the printer of stratum f is out of paper. Thermometer rooms
	// come from the seed. Printer rooms do not: the resolver's ranking cost
	// depends on the order the printers' distances fall in, and seeded
	// placement moved the workload's cost by ±18 % from seed to seed —
	// more than any change the benchmark is there to resolve. Printer GUIDs
	// rise with the stratum index.
	type placed struct {
		id   guid.GUID
		room location.PlaceID
	}
	var idle []placed
	for f := 0; f < qmFloors; f++ {
		for g := 0; g < qmPerFloor; g++ {
			i := f*qmPerFloor + g
			room := b.Rooms[f][g*qmStratum+1]
			id := seededGUID(rng, guid.KindDevice)
			id[1] = byte(i)
			state := sensor.PrinterIdle
			if g == f {
				state = sensor.PrinterOutOfPaper
			} else {
				idle = append(idle, placed{id, room})
			}
			p := entity.NewBaseWithID(id, printerProfile(fmt.Sprintf("P%02d", i), room, state), nil)
			if err := q.rng.AddEntity(p); err != nil {
				return fail(err)
			}
			q.printers = append(q.printers, p)

			troom := b.Rooms[f][g*qmStratum+rng.Intn(qmStratum)]
			th := sensor.NewTemperatureSensor(fmt.Sprintf("t%02d", i), location.AtPlace(troom), 294, 2, seed+int64(i), nil)
			if err := q.rng.AddEntity(th); err != nil {
				return fail(err)
			}
		}
	}

	// Every room anchors one application identity; the seed deals the rooms
	// to the clients.
	var rooms []location.PlaceID
	for f := range b.Rooms {
		rooms = append(rooms, b.Rooms[f]...)
	}
	rng.Shuffle(len(rooms), func(i, j int) { rooms[i], rooms[j] = rooms[j], rooms[i] })
	for c := range q.clients {
		cl := &qmClient{}
		for k := 0; k < qmIdentities; k++ {
			room := rooms[c*qmIdentities+k]
			caa := entity.NewCAA(fmt.Sprintf("client%d-%02d", c, k), func(event.Event) {}, nil)
			if err := q.rng.AddApplication(caa); err != nil {
				return fail(err)
			}
			prof := caa.Profile()
			prof.Location = location.AtPlace(room)
			if err := q.rng.Profiles().Put(prof); err != nil {
				return fail(err)
			}
			// The oracle's answer: brute force over the idle printers, ties
			// to the lower GUID as the resolver breaks them.
			id := qmIdentity{caa: caa, room: room}
			best := math.Inf(1)
			for _, p := range idle {
				d := b.Map.TravelDistance(location.AtPlace(room), location.AtPlace(p.room))
				if d < best || (d == best && guid.Less(p.id, id.closest)) {
					best, id.closest = d, p.id
				}
			}
			cl.ids = append(cl.ids, id)
		}
		q.clients[c] = cl
	}
	for _, c := range q.rng.Profiles().FindProviders(ctxtype.LocationSightingDoor, q.rng.Types()) {
		q.wantProfiles = append(q.wantProfiles, c.Profile.Entity)
	}
	q.baseActive = len(q.rng.Runtime().Active())
	q.baseSubs = q.rng.Mediator().Len()

	// Ready when the Range answers: one query of each kind, checked.
	probe := &qmClient{ids: q.clients[0].ids[:1]}
	for kind := 0; kind < qmKinds; kind++ {
		q.issue(probe, &probe.ids[0], kind)
	}
	if probe.failures > 0 {
		return fail(fmt.Errorf("query-mix not ready: %w", probe.firstErr))
	}
	return q, nil
}

func (q *qmInstance) buildQuery(id *qmIdentity, kind int) query.Query {
	owner := id.caa.ID()
	switch kind {
	case qmProfile:
		return query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile)
	case qmAdvert:
		qq := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
		qq.Which = query.Which{Criterion: query.CriterionClosest, Constraints: idleConstraint}
		return qq
	case qmLocation:
		return query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe)
	default:
		qq := query.New(owner, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
		qq.Where = query.Where{Implicit: query.ImplicitSameFloor}
		return qq
	}
}

// issue submits one query, checks its answer and, for subscriptions, tears
// the configuration down (outside the latency, inside the throughput).
func (q *qmInstance) issue(cl *qmClient, id *qmIdentity, kind int) {
	qq := q.buildQuery(id, kind)
	win := q.win.Load()
	t0 := time.Now()
	res, err := q.rng.Submit(qq)
	took := time.Since(t0)
	cl.attempted++
	if err == nil {
		err = q.check(id, kind, res)
	}
	if err != nil {
		cl.failures++
		if cl.firstErr == nil {
			cl.firstErr = err
		}
	}
	if win >= 0 {
		cl.lat[win].record(int64(took))
		cl.byKind[kind].record(int64(took))
	}
	if res != nil && !res.Configuration.IsNil() {
		t1 := time.Now()
		if err := q.rng.Runtime().Teardown(res.Configuration); err != nil {
			cl.failures++
			if cl.firstErr == nil {
				cl.firstErr = err
			}
		}
		if win >= 0 {
			cl.teardown.record(int64(time.Since(t1)))
		}
	}
	q.answers.Add(1)
}

func (q *qmInstance) check(id *qmIdentity, kind int, res *server.Result) error {
	switch kind {
	case qmProfile:
		if len(res.Profiles) != len(q.wantProfiles) {
			return fmt.Errorf("profile query returned %d profiles, want %d", len(res.Profiles), len(q.wantProfiles))
		}
		for i, p := range res.Profiles {
			if p.Entity != q.wantProfiles[i] {
				return fmt.Errorf("profile query: provider %d is %s, want %s", i, p.Entity.Short(), q.wantProfiles[i].Short())
			}
		}
	case qmAdvert:
		if res.Provider != id.closest {
			return fmt.Errorf("advertisement from %s chose %s, closest idle printer is %s", id.room, res.Provider.Short(), id.closest.Short())
		}
		if res.Advertisement == nil || res.Advertisement.Interface != "printer" {
			return errors.New("advertisement query returned no printer interface")
		}
	default:
		if res.Configuration.IsNil() {
			return errors.New("subscribe query instantiated no configuration")
		}
	}
	return nil
}

func (q *qmInstance) start() {
	for _, cl := range q.clients {
		cl := cl
		q.gen.Add(1)
		go func() {
			defer q.gen.Done()
			for cycle := 0; ; cycle++ {
				id := &cl.ids[cycle%len(cl.ids)]
				for _, kind := range qmCycle {
					select {
					case <-q.quit:
						return
					default:
					}
					q.issue(cl, id, kind)
				}
			}
		}()
	}
}

func (q *qmInstance) setWindow(w int)    { q.win.Store(int32(w)) }
func (q *qmInstance) ops() uint64        { return q.answers.Load() }
func (q *qmInstance) published() uint64  { return 0 }
func (q *qmInstance) wireBytes() uint64  { return 0 }
func (q *qmInstance) latency() *windowed { return &q.lat }

func (q *qmInstance) counters() map[string]float64 { return q.layerCounts }

// serverContext is the resolver.Context Range.Submit builds for owner.
func (q *qmInstance) serverContext(id *qmIdentity) resolver.Context {
	return resolver.Context{
		OwnerLocation: location.AtPlace(id.room),
		LiveOnly:      q.rng.Registrar().IsLive,
	}
}

func (q *qmInstance) stop() verdict {
	close(q.quit)
	q.gen.Wait()

	var v verdict
	var byKind [qmKinds]hist
	var teardown hist
	for _, cl := range q.clients {
		v.attempted += cl.attempted
		if cl.failures > 0 {
			v.fail(cl.failures, "wrong or failed query answers (first: %v)", cl.firstErr)
		}
		q.lat.merge(&cl.lat)
		teardown.merge(&cl.teardown)
		for k := range byKind {
			byKind[k].merge(&cl.byKind[k])
		}
	}
	if n := len(q.rng.Runtime().Active()); n != q.baseActive {
		v.fail(1, "Runtime().Active() is %d after the run, was %d before", n, q.baseActive)
	}
	if n := q.rng.Mediator().Len(); n != q.baseSubs {
		v.fail(1, "Mediator().Len() is %d after the run, was %d before", n, q.baseSubs)
	}
	st := q.rng.DispatchStats()
	v.fail(st.Dropped, "events dropped from full subscription queues")

	// The Range keeps its Resolver private, so the cache figure comes from a
	// Resolver over the same stores replaying the subscribe queries with the
	// Context the server builds.
	res := resolver.New(q.rng.Profiles(), q.rng.Types(), q.rng.Places())
	id := &q.clients[0].ids[0]
	for i := 0; i < 8; i++ {
		_, _ = res.Resolve(q.buildQuery(id, qmLocation), q.serverContext(id))
		_, _ = res.Resolve(q.buildQuery(id, qmTemperature), q.serverContext(id))
	}
	hits, misses := res.CacheStats()
	subscribes := byKind[qmLocation]
	subscribes.merge(&byKind[qmTemperature])
	q.layerCounts = map[string]float64{
		"server.submit_profile_us":   byKind[qmProfile].mean() / 1e3,
		"server.submit_advert_us":    byKind[qmAdvert].mean() / 1e3,
		"server.submit_subscribe_us": subscribes.mean() / 1e3,
		"configuration.teardown_us":  teardown.mean() / 1e3,
		"eventbus.index_hit_ratio":   q.rng.Mediator().IndexHitRatio(),
	}
	if hits+misses > 0 {
		q.layerCounts["resolver.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if st.Published > 0 {
		q.layerCounts["eventbus.dropped_share"] = float64(st.Dropped) / float64(st.Published)
	}
	q.rng.Close()
	return v
}
