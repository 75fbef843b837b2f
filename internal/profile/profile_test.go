package profile

import (
	"errors"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
)

func validProfile() Profile {
	return Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "door L10.01",
		Outputs: []ctxtype.Type{ctxtype.LocationSightingDoor},
		Quality: 0.9,
		Attributes: map[string]string{
			"door": "d-1001",
		},
		Location: location.AtPlace("l10.01"),
	}
}

func TestValidate(t *testing.T) {
	p := validProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Entity = guid.Nil
	if bad.Validate() == nil {
		t.Error("nil entity accepted")
	}
	bad = p
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = p
	bad.Outputs = []ctxtype.Type{"BAD TYPE"}
	if bad.Validate() == nil {
		t.Error("bad output type accepted")
	}
	bad = p
	bad.Inputs = []ctxtype.Type{""}
	if bad.Validate() == nil {
		t.Error("bad input type accepted")
	}
	bad = p
	bad.Quality = 1.5
	if bad.Validate() == nil {
		t.Error("quality > 1 accepted")
	}
	bad = p
	bad.Advertisement = &Advertisement{}
	if bad.Validate() == nil {
		t.Error("advertisement without interface accepted")
	}
}

func TestProvidesIn(t *testing.T) {
	reg := ctxtype.NewRegistry()
	p := validProfile()
	if s := p.ProvidesIn(ctxtype.LocationSightingDoor, reg); s != 3 {
		t.Errorf("exact match score = %d", s)
	}
	if s := p.ProvidesIn(ctxtype.LocationSighting, reg); s != 2 {
		t.Errorf("subsumption score = %d", s)
	}
	if s := p.ProvidesIn(ctxtype.LocationSightingWLAN, reg); s != 1 {
		t.Errorf("equivalence score = %d", s)
	}
	if s := p.ProvidesIn(ctxtype.PrinterStatus, reg); s != 0 {
		t.Errorf("unrelated score = %d", s)
	}
	// Without a registry, only hierarchy matching.
	if s := p.ProvidesIn(ctxtype.LocationSighting, nil); s != 3 {
		t.Errorf("nil-registry hierarchy score = %d", s)
	}
	if s := p.ProvidesIn(ctxtype.LocationSightingWLAN, nil); s != 0 {
		t.Errorf("nil-registry equivalence score = %d", s)
	}
}

func TestIsSourceAndAttr(t *testing.T) {
	p := validProfile()
	if !p.IsSource() {
		t.Error("sensor profile should be a source")
	}
	p.Inputs = []ctxtype.Type{ctxtype.LocationSighting}
	if p.IsSource() {
		t.Error("operator profile is not a source")
	}
	if p.Attr("door") != "d-1001" || p.Attr("missing") != "" {
		t.Error("Attr broken")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := validProfile()
	p.Advertisement = &Advertisement{
		Interface:  "printer",
		Operations: []string{"submit"},
		Attributes: map[string]string{"ppm": "30"},
	}
	c := p.Clone()
	c.Attributes["door"] = "changed"
	c.Outputs[0] = "changed.type"
	c.Advertisement.Operations[0] = "changed"
	c.Advertisement.Attributes["ppm"] = "0"
	if p.Attributes["door"] != "d-1001" || p.Outputs[0] != ctxtype.LocationSightingDoor {
		t.Fatal("Clone shares storage with original")
	}
	if p.Advertisement.Operations[0] != "submit" || p.Advertisement.Attributes["ppm"] != "30" {
		t.Fatal("Clone shares advertisement storage")
	}
}

func TestManagerPutGetRemove(t *testing.T) {
	var m Manager
	p := validProfile()
	if err := m.Put(p); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatal("Len != 1")
	}
	got, err := m.Get(p.Entity)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name {
		t.Fatal("Get returned wrong profile")
	}
	// Mutating the returned copy must not affect the store.
	got.Attributes["door"] = "mutated"
	again, _ := m.Get(p.Entity)
	if again.Attributes["door"] != "d-1001" {
		t.Fatal("Get returned shared storage")
	}
	if _, err := m.Get(guid.New(guid.KindEntity)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := m.Put(Profile{}); err == nil {
		t.Fatal("invalid profile stored")
	}
	m.Remove(p.Entity)
	if m.Len() != 0 {
		t.Fatal("Remove did not delete")
	}
	m.Remove(p.Entity) // idempotent
}

func TestManagerVersioning(t *testing.T) {
	var m Manager
	p := validProfile()
	if m.Version(p.Entity) != 0 {
		t.Fatal("absent profile must have version 0")
	}
	_ = m.Put(p)
	if m.Version(p.Entity) != 1 {
		t.Fatal("first Put must set version 1")
	}
	p.Name = "renamed"
	_ = m.Put(p)
	if m.Version(p.Entity) != 2 {
		t.Fatal("second Put must bump version")
	}
}

func TestFindProvidersOrdering(t *testing.T) {
	reg := ctxtype.NewRegistry()
	var m Manager

	door := validProfile() // exact door sighting, q=0.9
	wlan := Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "basestation",
		Outputs: []ctxtype.Type{ctxtype.LocationSightingWLAN},
		Quality: 0.6,
	}
	printer := Profile{
		Entity:  guid.New(guid.KindEntity),
		Name:    "printer",
		Outputs: []ctxtype.Type{ctxtype.PrinterStatus},
	}
	for _, p := range []Profile{wlan, printer, door} {
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}

	// Want door sightings: door is exact (3), wlan is equivalent (1).
	cands := m.FindProviders(ctxtype.LocationSightingDoor, reg)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].Profile.Entity != door.Entity || cands[0].Score != 3 {
		t.Fatalf("best candidate wrong: %+v", cands[0])
	}
	if cands[1].Profile.Entity != wlan.Entity || cands[1].Score != 1 {
		t.Fatalf("second candidate wrong: %+v", cands[1])
	}

	// Want any sighting: both subsume (2); the higher quality one first.
	cands = m.FindProviders(ctxtype.LocationSighting, reg)
	if len(cands) != 2 || cands[0].Profile.Entity != door.Entity {
		t.Fatalf("quality tie break wrong: %+v", cands)
	}

	if got := m.FindProviders(ctxtype.PathRoute, reg); len(got) != 0 {
		t.Fatal("no provider expected for path.route")
	}
}

func TestFindByAttrAndInterface(t *testing.T) {
	var m Manager
	p1 := validProfile()
	p1.Attributes["kind"] = "printer"
	p1.Advertisement = &Advertisement{Interface: "printer", Operations: []string{"submit"}}
	p2 := validProfile()
	p2.Entity = guid.New(guid.KindEntity)
	p2.Attributes = map[string]string{"kind": "display"}
	for _, p := range []Profile{p1, p2} {
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.FindByEntityType("printer"); len(got) != 1 || got[0].Entity != p1.Entity {
		t.Fatalf("FindByEntityType = %+v", got)
	}
	if got := m.FindByEntityType("display"); len(got) != 1 || got[0].Entity != p2.Entity {
		t.Fatalf("FindByEntityType = %+v", got)
	}
	if got := m.FindByEntityType("scanner"); len(got) != 0 {
		t.Fatal("unexpected interface match")
	}
}

func TestAllSorted(t *testing.T) {
	var m Manager
	for i := 0; i < 20; i++ {
		p := validProfile()
		p.Entity = guid.New(guid.KindEntity)
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	all := m.All()
	if len(all) != 20 {
		t.Fatalf("All len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !guid.Less(all[i-1].Entity, all[i].Entity) {
			t.Fatal("All not sorted")
		}
	}
}
