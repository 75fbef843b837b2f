package profile_test

// Tests for the Manager's output-type index and its read-only finders.

import (
	"errors"
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
			out = append(out, profile.Candidate{Profile: &p, Score: s})
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

// entityTypeNames is the entity-type vocabulary of the property test: the
// interfaces randomProfile advertises and the kinds it sets.
var entityTypeNames = []string{"printer", "display", "door-sensor"}

// randomProfile draws a profile for entity: zero to three outputs (repeats
// allowed), a quality from a small set so ties are common, a kind, and an
// advertisement whose interface is sometimes also the kind.
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
		p.Attributes = map[string]string{"kind": entityTypeNames[rng.Intn(len(entityTypeNames))]}
	}
	if rng.Intn(2) == 0 {
		iface := entityTypeNames[rng.Intn(len(entityTypeNames))]
		p.Advertisement = &profile.Advertisement{Interface: iface, Operations: []string{"submit"}}
		if rng.Intn(2) == 0 {
			p.Attributes = map[string]string{"kind": iface}
		}
	}
	return p
}

// scanEntityType is the reference FindByEntityType: every stored profile
// whose interface or kind is name, in entity GUID order.
func scanEntityType(store map[guid.GUID]profile.Profile, name string) []profile.Profile {
	var out []profile.Profile
	for _, p := range store {
		if p.Advertisement != nil && p.Advertisement.Interface == name || p.Attributes["kind"] == name {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return guid.Less(out[i].Entity, out[j].Entity) })
	return out
}

// indexModel drives a Manager and a map of plain copies side by side, the
// map being what the Manager must answer from.
type indexModel struct {
	t     *testing.T
	reg   *ctxtype.Registry
	m     profile.Manager
	store map[guid.GUID]profile.Profile
}

func newIndexModel(t *testing.T, reg *ctxtype.Registry) *indexModel {
	return &indexModel{t: t, reg: reg, store: map[guid.GUID]profile.Profile{}}
}

func (im *indexModel) put(p profile.Profile) {
	if err := im.m.Put(p); err != nil {
		im.t.Fatal(err)
	}
	im.store[p.Entity] = p.Clone()
}

func (im *indexModel) remove(e guid.GUID) {
	im.m.Remove(e)
	delete(im.store, e)
}

// check compares every FindProviders answer for indexWants and every
// FindByEntityType answer for entityTypeNames, plus an unknown name, with a
// scan of the store, element by element.
func (im *indexModel) check(step int) {
	t := im.t
	for _, want := range indexWants {
		got := im.m.FindProviders(want, im.reg)
		exp := scanProviders(im.store, want, im.reg)
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
	for _, name := range append(entityTypeNames, "scanner") {
		got := im.m.FindByEntityType(name)
		exp := scanEntityType(im.store, name)
		if len(got) != len(exp) {
			t.Fatalf("step %d entity type %q: %d profiles, scan has %d", step, name, len(got), len(exp))
		}
		for i := range exp {
			if !reflect.DeepEqual(*got[i], exp[i]) {
				t.Fatalf("step %d entity type %q: profile %d is %s, scan has %s", step, name, i,
					got[i].Entity.Short(), exp[i].Entity.Short())
			}
		}
	}
}

// TestIndexAgreesWithScan applies seeded random Put, re-Put and Remove
// sequences and checks every FindProviders and FindByEntityType answer
// against a scan of every stored profile, element by element, with and
// without a registry.
func TestIndexAgreesWithScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, withReg := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/registry=%v", seed, withReg), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var reg *ctxtype.Registry
				if withReg {
					reg = ctxtype.NewRegistry()
				}
				im := newIndexModel(t, reg)
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
						im.remove(e)
					} else {
						im.put(randomProfile(rng, e))
					}
					im.check(step)
				}
			})
		}
	}
}

// FuzzProfileIndex is TestIndexAgreesWithScan driven by the fuzzer: ops is
// a sequence of three-byte operations on eight entities. The first byte
// picks the entity and, at 0xc0 and above, makes the operation a Remove;
// otherwise the next two seed the profile Put.
func FuzzProfileIndex(f *testing.F) {
	f.Add(false, []byte{0, 0, 1, 1, 0, 2, 0, 0, 3, 0xc0, 0, 0})
	f.Add(true, []byte{2, 7, 7, 2, 8, 8, 0xc2, 0, 0, 2, 9, 9, 10, 1, 2})
	rng := rand.New(rand.NewSource(0))
	entities := make([]guid.GUID, 8)
	for i := range entities {
		entities[i] = seededEntity(rng)
	}
	f.Fuzz(func(t *testing.T, withReg bool, ops []byte) {
		var reg *ctxtype.Registry
		if withReg {
			reg = ctxtype.NewRegistry()
		}
		im := newIndexModel(t, reg)
		for step := 0; len(ops) >= 3 && step < 64; step, ops = step+1, ops[3:] {
			e := entities[int(ops[0])%len(entities)]
			if ops[0] >= 0xc0 {
				im.remove(e)
			} else {
				seed := int64(ops[1])<<8 | int64(ops[2])
				im.put(randomProfile(rand.New(rand.NewSource(seed)), e))
			}
			im.check(step)
		}
	})
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

// TestStoredProfilesAreFrozen: a re-Put or Remove swaps or drops the stored
// profile but never writes it, so the pointers Lookup, FindProviders and
// FindByEntityType handed out keep reading what the first Put stored, while
// fresh answers follow the store.
func TestStoredProfilesAreFrozen(t *testing.T) {
	reg := ctxtype.NewRegistry()
	var m profile.Manager
	other := profile.Profile{
		Entity:        guid.New(guid.KindEntity),
		Name:          "other printer",
		Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
		Attributes:    map[string]string{"kind": "printer"},
		Advertisement: &profile.Advertisement{Interface: "printer", Operations: []string{"submit"}},
	}
	first := profile.Profile{
		Entity:        guid.New(guid.KindEntity),
		Name:          "printer",
		Outputs:       []ctxtype.Type{ctxtype.PrinterStatus},
		Quality:       0.5,
		Attributes:    map[string]string{"kind": "printer", "status": "idle"},
		Advertisement: &profile.Advertisement{Interface: "printer", Operations: []string{"submit"}},
	}
	second := profile.Profile{
		Entity:        first.Entity,
		Name:          "display",
		Outputs:       []ctxtype.Type{ctxtype.TemperatureCelsius},
		Quality:       0.9,
		Attributes:    map[string]string{"kind": "display", "status": "busy"},
		Advertisement: &profile.Advertisement{Interface: "screen", Operations: []string{"show"}},
	}
	for _, p := range []profile.Profile{other, first} {
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	id := first.Entity
	find := func(ps []*profile.Profile, id guid.GUID) *profile.Profile {
		for _, p := range ps {
			if p.Entity == id {
				return p
			}
		}
		return nil
	}
	providers := func(want ctxtype.Type) []*profile.Profile {
		var ps []*profile.Profile
		for _, c := range m.FindProviders(want, reg) {
			ps = append(ps, c.Profile)
		}
		return ps
	}
	looked, err := m.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	held := []*profile.Profile{looked, find(providers(ctxtype.PrinterStatus), id), find(m.FindByEntityType("printer"), id)}
	// fresh checks the current answers: the entity is found, as cur, exactly
	// under the output types and entity types cur qualifies for, and other
	// stays where it was.
	fresh := func(step string, cur *profile.Profile) {
		t.Helper()
		for i, p := range held {
			if p == nil || !reflect.DeepEqual(*p, first) {
				t.Fatalf("%s: held pointer %d no longer reads the first Put: %+v", step, i, p)
			}
		}
		got, err := m.Lookup(id)
		switch {
		case cur == nil && !errors.Is(err, profile.ErrNotFound):
			t.Fatalf("%s: Lookup = %+v, %v; want ErrNotFound", step, got, err)
		case cur != nil && (err != nil || !reflect.DeepEqual(*got, *cur)):
			t.Fatalf("%s: Lookup = %+v, %v; want %+v", step, got, err, *cur)
		}
		for _, want := range []ctxtype.Type{ctxtype.PrinterStatus, ctxtype.TemperatureCelsius} {
			p := find(providers(want), id)
			if qualifies := cur != nil && cur.Outputs[0] == want; qualifies != (p != nil) || p != nil && !reflect.DeepEqual(*p, *cur) {
				t.Fatalf("%s: FindProviders(%s) holds %+v", step, want, p)
			}
		}
		for _, name := range []string{"printer", "display", "screen"} {
			p := find(m.FindByEntityType(name), id)
			qualifies := cur != nil && (cur.Attributes["kind"] == name || cur.Advertisement.Interface == name)
			if qualifies != (p != nil) || p != nil && !reflect.DeepEqual(*p, *cur) {
				t.Fatalf("%s: FindByEntityType(%q) holds %+v", step, name, p)
			}
		}
		if find(m.FindByEntityType("printer"), other.Entity) == nil || find(providers(ctxtype.PrinterStatus), other.Entity) == nil {
			t.Fatalf("%s: the other printer left an answer", step)
		}
	}
	fresh("first Put", &first)
	if err := m.Put(second); err != nil {
		t.Fatal(err)
	}
	fresh("re-Put", &second)
	m.Remove(id)
	fresh("Remove", nil)
}

// TestLookupAndEntityTypeAllocs: Lookup hands out the stored pointer
// without allocating, and FindByEntityType allocates only its answer.
func TestLookupAndEntityTypeAllocs(t *testing.T) {
	var m profile.Manager
	var id guid.GUID
	for i := 0; i < 16; i++ {
		p := profile.Profile{
			Entity:        guid.New(guid.KindEntity),
			Name:          fmt.Sprint("printer", i),
			Attributes:    map[string]string{"kind": "printer"},
			Advertisement: &profile.Advertisement{Interface: "printer"},
		}
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
		id = p.Entity
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.Lookup(id) }); allocs != 0 {
		t.Errorf("Lookup: %v allocations, want 0", allocs)
	}
	if n := len(m.FindByEntityType("printer")); n != 16 {
		t.Fatalf("FindByEntityType found %d, want 16", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.FindByEntityType("printer") }); allocs > 1 {
		t.Errorf("FindByEntityType: %v allocations, want at most 1", allocs)
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
