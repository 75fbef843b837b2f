package resolver_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
	"sci/internal/sim"
)

// closestPrinter is one printer of the closest-ranking oracle.
type closestPrinter struct {
	id   guid.GUID
	loc  location.Ref
	idle bool
}

// lowGUID returns a device GUID below every random one: the candidate that
// would win every tie if distance did not rank first.
func lowGUID(n byte) guid.GUID {
	var g guid.GUID
	g[0] = byte(guid.KindDevice)
	g[guid.Size-1] = n
	return g
}

// TestClosestMatchesBruteForce places printers across a 4×16 building —
// some rooms hold two, so equal distances occur — plus two idle,
// top-quality printers with the lowest GUIDs whose locations are missing or
// unresolvable. From every place, a constrained closest advertisement query
// and an implicit closest-to-me subscribe query must choose the printer a
// brute-force scan picks: minimum travel distance, ties to the lower GUID,
// location-less candidates last.
func TestClosestMatchesBruteForce(t *testing.T) {
	b, err := sim.NewBuilding(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	profiles := &profile.Manager{}
	types := ctxtype.NewRegistry()
	rng := rand.New(rand.NewSource(26))

	var printers []closestPrinter
	add := func(id guid.GUID, loc location.Ref, idle bool, quality float64) {
		status := "busy"
		if idle {
			status = "idle"
		}
		if err := profiles.Put(profile.Profile{
			Entity:        id,
			Name:          fmt.Sprintf("printer-%d", len(printers)),
			Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
			Location:      loc,
			Quality:       quality,
			Attributes:    map[string]string{"kind": "printer", "status": status},
			Advertisement: &profile.Advertisement{Interface: "printer", Operations: []string{"submit"}},
		}); err != nil {
			t.Fatal(err)
		}
		printers = append(printers, closestPrinter{id: id, loc: loc, idle: idle})
	}
	for f := range b.Rooms {
		for k := 0; k < 4; k++ {
			room := b.Rooms[f][rng.Intn(len(b.Rooms[f]))]
			add(guid.New(guid.KindDevice), location.AtPlace(room), rng.Intn(3) > 0, 0)
			if k == 0 { // a second printer in the same room: an exact tie
				add(guid.New(guid.KindDevice), location.AtPlace(room), true, 0)
			}
		}
	}
	add(lowGUID(0), location.Ref{}, true, 1)
	add(lowGUID(1), location.AtPath("campus/annex/r01"), true, 1)

	res := resolver.New(profiles, types, b.Map)
	app := guid.New(guid.KindApplication)
	advert := query.New(app, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	advert.Which = query.Which{Criterion: query.CriterionClosest, Constraints: map[string]string{"status": "idle"}}
	implicit := query.New(app, query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	implicit.Where.Implicit = query.ImplicitClosest

	// bruteForce scans every printer (only idle ones when idleOnly) and
	// reports the winner and whether it won on a distance tie.
	bruteForce := func(from location.PlaceID, idleOnly bool) (best guid.GUID, tied bool) {
		bestD := math.Inf(1)
		for _, p := range printers {
			if idleOnly && !p.idle {
				continue
			}
			d := math.Inf(1)
			if !p.loc.Empty() {
				d = b.Map.TravelDistance(location.AtPlace(from), p.loc)
			}
			switch {
			case best.IsNil() || d < bestD:
				best, bestD, tied = p.id, d, false
			case d == bestD:
				tied = true
				if guid.Less(p.id, best) {
					best = p.id
				}
			}
		}
		if math.IsInf(bestD, 1) {
			t.Fatalf("no located printer reachable from %s", from)
		}
		return best, tied
	}

	ties := 0
	for _, place := range b.Map.Places() {
		ctx := resolver.Context{OwnerLocation: location.AtPlace(place)}
		for _, c := range []struct {
			name     string
			q        query.Query
			idleOnly bool
		}{{"advertisement", advert, true}, {"closest-to-me", implicit, false}} {
			cfg, err := res.Resolve(c.q, ctx)
			if err != nil {
				t.Fatalf("%s from %s: %v", c.name, place, err)
			}
			want, tied := bruteForce(place, c.idleOnly)
			if tied {
				ties++
			}
			if cfg.Root.Provider != want {
				t.Fatalf("%s from %s chose %s, brute force says %s", c.name, place, cfg.Root.Provider.Short(), want.Short())
			}
		}
	}
	if ties == 0 {
		t.Fatal("no query was decided by a distance tie: the oracle does not exercise the GUID tie-break")
	}
}
