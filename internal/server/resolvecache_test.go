package server

import (
	"fmt"
	"sync"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/resolver"
	"sci/internal/sensor"
)

// placeCAA stores the world's CAA profile again, now located at place.
func placeCAA(t *testing.T, w *world, place location.PlaceID) {
	t.Helper()
	prof := w.caa.Profile()
	prof.Location = location.AtPlace(place)
	if err := w.rng.Profiles().Put(prof); err != nil {
		t.Fatal(err)
	}
}

// TestResolveCacheServesRange: a Range's repeated queries are served from
// its resolver's cache, the hits show in StatsMap, and a departed provider
// is not served again.
func TestResolveCacheServesRange(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	near := sensor.NewPrinter("P-near", location.AtPlace("corr"), w.clk)
	far := sensor.NewPrinter("P-far", location.AtPlace("lobby"), w.clk)
	for _, p := range []*sensor.Printer{near, far} {
		if err := w.rng.AddEntity(p); err != nil {
			t.Fatal(err)
		}
	}
	placeCAA(t, w, "l10.01")
	closest := func() *Result {
		t.Helper()
		q := query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement)
		q.Which.Criterion = query.CriterionClosest
		res, err := w.rng.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < 3; i++ {
		if res := closest(); res.Provider != near.ID() {
			t.Fatalf("submit %d: closest printer = %s, want P-near", i, res.Provider.Short())
		}
	}
	// Two subscriptions to one cached resolution are two configurations.
	var ids []string
	for i := 0; i < 2; i++ {
		res, err := w.rng.Submit(query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.Configuration.String())
		defer func() {
			if err := w.rng.Runtime().Teardown(res.Configuration); err != nil {
				t.Error(err)
			}
		}()
	}
	if ids[0] == ids[1] {
		t.Fatal("two subscribe queries share a configuration ID")
	}
	if n := len(w.rng.Runtime().Active()); n != 2 {
		t.Fatalf("%d active configurations, want 2", n)
	}
	stats := w.rng.StatsMap()
	if stats["resolver.cache_hits"] < 3 || stats["resolver.cache_misses"] < 2 {
		t.Fatalf("resolver.cache_hits %v, resolver.cache_misses %v; want at least 3 and 2",
			stats["resolver.cache_hits"], stats["resolver.cache_misses"])
	}
	if err := w.rng.RemoveEntity(near.ID()); err != nil {
		t.Fatal(err)
	}
	if res := closest(); res.Provider != far.ID() {
		t.Fatalf("after P-near left: closest printer = %s, want P-far", res.Provider.Short())
	}
}

// TestResolveCacheUnderChurn submits queries from several goroutines while
// printers arrive and leave (run with -race). Once the churn stops, the
// Range serves a repeated query from the cache, and its answer equals a
// fresh resolution over its stores.
func TestResolveCacheUnderChurn(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	if err := w.rng.AddEntity(sensor.NewPrinter("P-base", location.AtPlace("lobby"), w.clk)); err != nil {
		t.Fatal(err)
	}
	placeCAA(t, w, "l10.02")
	advert := func() query.Query {
		q := query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement)
		q.Which.Criterion = query.CriterionClosest
		return q
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.rng.Submit(advert()); err != nil {
					errs <- err
					return
				}
				res, err := w.rng.Submit(query.New(w.caa.ID(), query.What{Pattern: ctxtype.LocationPosition}, query.ModeSubscribe))
				if err != nil {
					errs <- err
					return
				}
				if err := w.rng.Runtime().Teardown(res.Configuration); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	places := []location.PlaceID{"corr", "l10.01", "l10.02"}
	for i := 0; i < 60; i++ {
		p := sensor.NewPrinter(fmt.Sprintf("P%d", i), location.AtPlace(places[i%len(places)]), w.clk)
		if err := w.rng.AddEntity(p); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := w.rng.RemoveEntity(p.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	q := advert()
	if _, err := w.rng.Submit(q); err != nil {
		t.Fatal(err)
	}
	hits := w.rng.StatsMap()["resolver.cache_hits"]
	res, err := w.rng.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if w.rng.StatsMap()["resolver.cache_hits"] <= hits {
		t.Fatal("a repeated query after the churn was not served from the cache")
	}
	fresh := resolver.New(w.rng.Profiles(), w.rng.Types(), w.rng.Places())
	want, err := fresh.Resolve(q, resolver.Context{
		OwnerLocation: location.AtPlace("l10.02"),
		LiveOnly:      w.rng.Registrar().IsLive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Provider != want.Root.Provider {
		t.Fatalf("after churn the Range answers %s, a fresh resolution %s", res.Provider.Short(), want.Root.Provider.Short())
	}
}

// TestSubmitAdvertisementProviderDeparts: an advertisement query answers
// from the profile its resolution ranked, so a printer whose profile leaves
// the store after it was chosen is still the answer, not a
// profile.ErrNotFound. The Range's resolver reads a snapshot of the store
// taken before the departure: the resolution ranks the printer, and the
// answer is assembled once its profile has gone.
func TestSubmitAdvertisementProviderDeparts(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	p1 := sensor.NewPrinter("P1", location.AtPlace("corr"), w.clk)
	if err := w.rng.AddEntity(p1); err != nil {
		t.Fatal(err)
	}
	snapshot := new(profile.Manager)
	for _, p := range w.rng.Profiles().All() {
		if err := snapshot.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	ranked, err := snapshot.Lookup(p1.ID())
	if err != nil {
		t.Fatal(err)
	}
	w.rng.res = resolver.New(snapshot, w.rng.Types(), w.rng.Places())
	w.rng.Profiles().Remove(p1.ID())

	res, err := w.rng.Submit(query.New(w.caa.ID(), query.What{EntityType: "printer"}, query.ModeAdvertisement))
	if err != nil {
		t.Fatalf("the ranked printer's profile left the store before the answer: %v", err)
	}
	if res.Provider != p1.ID() || res.Advertisement != ranked.Advertisement {
		t.Fatalf("answer %s with advertisement %p, want P1's ranked advertisement %p",
			res.Provider.Short(), res.Advertisement, ranked.Advertisement)
	}
}
