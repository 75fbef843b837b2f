package server_test

import (
	"fmt"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/sim"
)

// building is a Range over a 4-floor × 16-room building shaped like the
// query-mix benchmark's: a door sensor per room, the object-location and
// path operators, a printer and a thermometer per four rooms, and an
// application in one room.
type building struct {
	rng *server.Range
	caa *entity.CAA
}

func newBuilding(t testing.TB) *building {
	t.Helper()
	b, err := sim.NewBuilding(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := server.New(server.Config{Name: "tower", Places: b.Map, Coverage: "campus/tower"})
	add := func(ce entity.CE) {
		t.Helper()
		if err := rng.AddEntity(ce); err != nil {
			t.Fatal(err)
		}
	}
	for room, door := range b.DoorOf {
		add(sensor.NewDoorSensor(door, location.AtPlace(room), nil))
	}
	add(entity.NewObjLocationCE(b.Map, nil))
	add(entity.NewPathCE(b.Map, nil))
	for f, rooms := range b.Rooms {
		for g := 0; g < 4; g++ {
			room := rooms[4*g+1]
			add(entity.NewBase(guid.KindDevice, profile.Profile{
				Name:       fmt.Sprintf("P%d%d", f, g),
				Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
				Location:   location.AtPlace(room),
				Attributes: map[string]string{"kind": "printer", "status": string(sensor.PrinterIdle)},
				Advertisement: &profile.Advertisement{
					Interface:  "printer",
					Operations: []string{"submit", "status", "complete"},
				},
			}, nil))
			add(sensor.NewTemperatureSensor(fmt.Sprintf("t%d%d", f, g), location.AtPlace(rooms[4*g+2]), 294, 2, int64(4*f+g), nil))
		}
	}
	caa := entity.NewCAA("client", func(event.Event) {}, nil)
	if err := rng.AddApplication(caa); err != nil {
		t.Fatal(err)
	}
	prof := caa.Profile()
	prof.Location = location.AtPlace(b.Rooms[1][5])
	if err := rng.Profiles().Put(prof); err != nil {
		t.Fatal(err)
	}
	return &building{rng: rng, caa: caa}
}

// queryAllocs submits q once to warm every cache it reads, then counts the
// allocations of a warm submit, plus its teardown when q subscribes.
func (b *building) queryAllocs(t *testing.T, q query.Query) float64 {
	t.Helper()
	run := func() {
		res, err := b.rng.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Configuration.IsNil() {
			if err := b.rng.Runtime().Teardown(res.Configuration); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	return testing.AllocsPerRun(200, run)
}

// TestWarmQueryAllocs: a warm query allocates only what it returns or
// keeps. A profile query and an advertisement allocate their Result alone:
// the profiles come from the Range's memo and the provider from the
// resolver's cached root. A subscribe allocates its Result, its
// configuration, its runtime record (the subscription ids inside it) and
// the bus subscriptions with their handlers, which the Mediator's table
// holds as they are; a teardown allocates nothing.
func TestWarmQueryAllocs(t *testing.T) {
	b := newBuilding(t)
	defer b.rng.Close()
	owner := b.caa.ID()
	advert := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	advert.Which = query.Which{Criterion: query.CriterionClosest, Constraints: map[string]string{"status": string(sensor.PrinterIdle)}}
	temperature := query.New(owner, query.What{Pattern: ctxtype.TemperatureKelvin}, query.ModeSubscribe)
	temperature.Where = query.Where{Implicit: query.ImplicitSameFloor}
	for _, c := range []struct {
		name   string
		q      query.Query
		budget float64
	}{
		{"profile", query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeProfile), 1},
		{"advertisement", advert, 1},
		{"location subscribe + teardown", query.New(owner, query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe), 7},
		{"temperature subscribe + teardown", temperature, 5},
	} {
		if got := b.queryAllocs(t, c.q); got > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.name, got, c.budget)
		}
	}
}
