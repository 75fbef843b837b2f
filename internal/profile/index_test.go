package profile_test

// Tests for the Manager's output-type index and its read-only finders.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/profile"
	"sci/internal/profile/profiletest"
)

// indexTypes is the output vocabulary of the property test: a hierarchy
// with subtypes at two depths, the door ≡ wlan equivalence of
// ctxtype.NewRegistry, and a pair of types a test declares equivalent
// midway.
var indexTypes = []ctxtype.Type{
	ctxtype.LocationSighting,
	ctxtype.LocationSightingDoor,
	ctxtype.LocationSightingWLAN,
	ctxtype.LocationPosition,
	ctxtype.TemperatureKelvin,
	ctxtype.TemperatureCelsius,
	ctxtype.PrinterStatus,
	"a.b",
	"a.b.c",
	"a.b.c.d",
}

// indexWants adds to indexTypes wants no profile outputs directly: bare
// roots, the wildcard and an unknown type.
var indexWants = append([]ctxtype.Type{
	"location", "temperature", "a", ctxtype.Wildcard, "no.such.type",
}, indexTypes...)

// scanProviders is the reference FindProviders: score every stored profile
// and sort with (score desc, quality desc, entity asc).
func scanProviders(store map[guid.GUID]profile.Profile, want ctxtype.Type, reg *ctxtype.Registry) []profile.Candidate {
	var out []profile.Candidate
	for _, p := range store {
		if s := p.ProvidesIn(want, reg); s > 0 {
			out = append(out, profile.Candidate{Profile: p, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		qi, qj := out[i].Profile.Quality, out[j].Profile.Quality
		if qi != qj {
			return qi > qj
		}
		return guid.Less(out[i].Profile.Entity, out[j].Profile.Entity)
	})
	return out
}

func seededEntity(rng *rand.Rand) guid.GUID {
	var g guid.GUID
	rng.Read(g[:])
	g[0] = byte(guid.KindEntity)
	return g
}

// randomProfile draws a profile for entity: zero to three outputs (repeats
// allowed), a quality from a small set so ties are common, and attributes.
func randomProfile(rng *rand.Rand, entity guid.GUID) profile.Profile {
	p := profile.Profile{Entity: entity, Name: fmt.Sprintf("p%d", rng.Intn(1000))}
	for n := rng.Intn(4); n > 0; n-- {
		p.Outputs = append(p.Outputs, indexTypes[rng.Intn(len(indexTypes))])
	}
	if rng.Intn(3) == 0 {
		p.Inputs = []ctxtype.Type{indexTypes[rng.Intn(len(indexTypes))]}
	}
	p.Quality = []float64{0, 0.5, 0.5, 0.9, 1}[rng.Intn(5)]
	if rng.Intn(2) == 0 {
		p.Attributes = map[string]string{"kind": fmt.Sprint(rng.Intn(3))}
	}
	return p
}

// TestIndexAgreesWithScan applies seeded random Put, re-Put and Remove
// sequences and checks every FindProviders answer against a scan of every
// stored profile, element by element, with and without a registry.
func TestIndexAgreesWithScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, withReg := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/registry=%v", seed, withReg), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var reg *ctxtype.Registry
				if withReg {
					reg = ctxtype.NewRegistry()
				}
				var m profile.Manager
				store := map[guid.GUID]profile.Profile{}
				entities := make([]guid.GUID, 24)
				for i := range entities {
					entities[i] = seededEntity(rng)
				}
				for step := 0; step < 200; step++ {
					if reg != nil && step == 100 {
						if err := reg.DeclareEquivalent(ctxtype.TemperatureKelvin, "a.b.c"); err != nil {
							t.Fatal(err)
						}
					}
					e := entities[rng.Intn(len(entities))]
					if rng.Intn(4) == 0 {
						m.Remove(e)
						delete(store, e)
					} else {
						p := randomProfile(rng, e)
						if err := m.Put(p); err != nil {
							t.Fatal(err)
						}
						store[e] = p.Clone()
					}
					for _, want := range indexWants {
						got := m.FindProviders(want, reg)
						exp := scanProviders(store, want, reg)
						if len(got) != len(exp) {
							t.Fatalf("step %d want %s: %d candidates, scan has %d", step, want, len(got), len(exp))
						}
						for i := range exp {
							if got[i].Score != exp[i].Score || !reflect.DeepEqual(got[i].Profile, exp[i].Profile) {
								t.Fatalf("step %d want %s: candidate %d is %s/%d, scan has %s/%d", step, want, i,
									got[i].Profile.Entity.Short(), got[i].Score, exp[i].Profile.Entity.Short(), exp[i].Score)
							}
						}
					}
				}
			})
		}
	}
}

// TestFindProvidersSingleBucketAllocs: a want only one output type matches
// costs one allocation, the result slice.
func TestFindProvidersSingleBucketAllocs(t *testing.T) {
	reg := ctxtype.NewRegistry()
	var m profile.Manager
	for i := 0; i < 64; i++ {
		p := profile.Profile{
			Entity:  guid.New(guid.KindEntity),
			Name:    fmt.Sprintf("door%d", i),
			Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor},
			Quality: 0.9,
		}
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, out := range []ctxtype.Type{ctxtype.PrinterStatus, ctxtype.TemperatureKelvin, ctxtype.PathRoute} {
		p := profile.Profile{Entity: guid.New(guid.KindEntity), Name: fmt.Sprint("other", i), Outputs: []ctxtype.Type{out}}
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.FindProviders(ctxtype.LocationSightingDoor, reg)); n != 64 {
		t.Fatalf("FindProviders found %d, want 64", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = m.FindProviders(ctxtype.LocationSightingDoor, reg)
	})
	if allocs != 1 {
		t.Fatalf("single-bucket FindProviders: %v allocations, want 1", allocs)
	}
}

// TestCopiesDoNotReachTheStore: writing through everything Get and All
// return leaves the stored profiles as they were Put.
func TestCopiesDoNotReachTheStore(t *testing.T) {
	var m profile.Manager
	put := map[guid.GUID]profile.Profile{}
	for i := 0; i < 4; i++ {
		p := profile.Profile{
			Entity:     guid.New(guid.KindEntity),
			Name:       fmt.Sprint("printer", i),
			Inputs:     []ctxtype.Type{ctxtype.PrinterQueue},
			Outputs:    []ctxtype.Type{ctxtype.PrinterStatus},
			Quality:    0.5,
			Attributes: map[string]string{"kind": "printer", "status": "idle"},
			Advertisement: &profile.Advertisement{
				Interface:  "printer",
				Operations: []string{"submit", "status"},
				Attributes: map[string]string{"ppm": "30"},
			},
		}
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
		put[p.Entity] = p.Clone()
	}
	for id := range put {
		got, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		profiletest.Scribble(&got)
	}
	for _, p := range m.All() {
		profiletest.Scribble(&p)
	}
	for id, want := range put {
		got, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stored profile changed:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestConcurrentPutAndFind runs re-Puts, which leave buckets to be
// ordered, against FindProviders calls, which order them (run with -race).
// Every answer must be in result order.
func TestConcurrentPutAndFind(t *testing.T) {
	reg := ctxtype.NewRegistry()
	var m profile.Manager
	entities := make([]guid.GUID, 32)
	for i := range entities {
		entities[i] = guid.New(guid.KindEntity)
	}
	put := func(rng *rand.Rand) {
		p := randomProfile(rng, entities[rng.Intn(len(entities))])
		if err := m.Put(p); err != nil {
			t.Error(err)
		}
	}
	seedRng := rand.New(rand.NewSource(1))
	for range entities {
		put(seedRng)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				put(rng)
			}
		}(int64(w + 2))
	}
	for i := 0; i < 500; i++ {
		want := indexWants[i%len(indexWants)]
		got := m.FindProviders(want, reg)
		for j := 1; j < len(got); j++ {
			a, b := got[j-1], got[j]
			inOrder := a.Score > b.Score ||
				a.Score == b.Score && (a.Profile.Quality > b.Profile.Quality ||
					a.Profile.Quality == b.Profile.Quality && guid.Less(a.Profile.Entity, b.Profile.Entity))
			if !inOrder {
				close(stop)
				wg.Wait()
				t.Fatalf("want %s: candidates %d and %d out of order", want, j-1, j)
			}
		}
	}
	close(stop)
	wg.Wait()
}
