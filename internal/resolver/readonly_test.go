package resolver

import (
	"fmt"
	"reflect"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
)

// TestResolveLeavesStoreUnchanged: the resolver ranks and filters the
// Profile Manager's stored profiles in place of copies, so it must only
// read them. Every query mode leaves the store deep-equal to what was Put.
func TestResolveLeavesStoreUnchanged(t *testing.T) {
	w := newWorld(t)
	places := []location.Place{
		{ID: "r1", Path: "b/f/r1", Centroid: location.Point{Frame: "F", X: 0, Y: 0}},
		{ID: "r2", Path: "b/f/r2", Centroid: location.Point{Frame: "F", X: 10, Y: 0}},
		{ID: "r3", Path: "b/f/r3", Centroid: location.Point{Frame: "F", X: 20, Y: 0}},
	}
	lmap, err := location.NewMap(places, []location.Link{{A: "r1", B: "r2"}, {A: "r2", B: "r3"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range []location.PlaceID{"r1", "r2", "r3"} {
		mustPut(t, w.profiles, profile.Profile{
			Entity:     guid.New(guid.KindDevice),
			Name:       fmt.Sprintf("printer-%d", i),
			Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
			Location:   location.AtPlace(at),
			Quality:    0.5,
			Attributes: map[string]string{"kind": "printer", "status": "idle", "queue": fmt.Sprint(3 - i)},
			Advertisement: &profile.Advertisement{
				Interface:  "printer",
				Operations: []string{"submit", "status"},
				Attributes: map[string]string{"ppm": "30"},
			},
		})
	}
	w.res = New(w.profiles, w.types, lmap)
	before := w.profiles.All()

	owner := guid.New(guid.KindApplication)
	path := pathQuery(t)
	closest := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	closest.Which = query.Which{Criterion: query.CriterionClosest, Constraints: map[string]string{"status": "idle"}}
	shortest := query.New(owner, query.What{EntityType: "printer"}, query.ModeAdvertisement)
	shortest.Which.Criterion = query.CriterionShortestQueue
	status := query.New(owner, query.What{Pattern: ctxtype.PrinterStatus}, query.ModeSubscribe)
	status.Where = query.Where{Implicit: query.ImplicitSameFloor}
	rctx := Context{OwnerLocation: location.AtPlace("r3")}
	for _, q := range []query.Query{path, closest, shortest, status} {
		if _, err := w.res.Resolve(q, rctx); err != nil {
			t.Fatalf("%+v: %v", q.What, err)
		}
		if _, err := w.res.Resolve(q, Context{OwnerLocation: rctx.OwnerLocation, Exclude: guid.NewSet(w.doors[0])}); err != nil {
			t.Fatalf("%+v with exclusion: %v", q.What, err)
		}
	}
	if after := w.profiles.All(); !reflect.DeepEqual(after, before) {
		t.Fatalf("Resolve changed the stored profiles:\n got %+v\nwant %+v", after, before)
	}
}
