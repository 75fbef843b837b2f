package event

import (
	"testing"
	"testing/quick"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/guid"
)

var t0 = time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)

func TestNewAndValidate(t *testing.T) {
	src := guid.New(guid.KindEntity)
	e := New(ctxtype.TemperatureCelsius, src, 7, t0, map[string]any{"value": 21.5})
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.ID.Kind() != guid.KindEvent {
		t.Fatalf("event id kind = %v", e.ID.Kind())
	}
	if e.Seq != 7 || !e.Time.Equal(t0) {
		t.Fatal("fields not set")
	}
}

func TestValidateRejections(t *testing.T) {
	src := guid.New(guid.KindEntity)
	good := New(ctxtype.TemperatureCelsius, src, 1, t0, nil)

	e := good
	e.ID = guid.Nil
	if e.Validate() == nil {
		t.Error("nil ID accepted")
	}
	e = good
	e.Type = "BAD TYPE"
	if e.Validate() == nil {
		t.Error("bad type accepted")
	}
	e = good
	e.Type = ctxtype.Wildcard
	if e.Validate() == nil {
		t.Error("wildcard type accepted")
	}
	e = good
	e.Source = guid.Nil
	if e.Validate() == nil {
		t.Error("nil source accepted")
	}
}

// TestValidateBatchAgreesWithValidate: ValidateBatch stops at the first
// event Validate rejects, with Validate's own error. An ID or source fault
// inside a run of one type is caught although the run's type syntax is
// checked once.
func TestValidateBatchAgreesWithValidate(t *testing.T) {
	src := guid.New(guid.KindEntity)
	good := New(ctxtype.TemperatureCelsius, src, 1, t0, nil)
	bad := map[string]func(*Event){
		"nil id":      func(e *Event) { e.ID = guid.Nil },
		"bad type":    func(e *Event) { e.Type = "BAD TYPE" },
		"empty type":  func(e *Event) { e.Type = "" },
		"wildcard":    func(e *Event) { e.Type = ctxtype.Wildcard },
		"nil source":  func(e *Event) { e.Source = guid.Nil },
		"empty field": func(e *Event) { e.Type = "a..b" },
	}
	for name, spoil := range bad {
		for _, at := range []int{0, 1, 3} {
			evs := make([]Event, 5)
			for i := range evs {
				evs[i] = good
			}
			spoil(&evs[at])
			i, err := ValidateBatch(evs)
			want := evs[at].Validate()
			if i != at || err == nil || err.Error() != want.Error() {
				t.Errorf("%s at %d: ValidateBatch = %d, %v; want %d, %v", name, at, i, err, at, want)
			}
		}
	}
	clean := []Event{good, good, New(ctxtype.PrinterStatus, src, 2, t0, nil), good}
	if i, err := ValidateBatch(clean); i != len(clean) || err != nil {
		t.Fatalf("clean batch: ValidateBatch = %d, %v; want %d, nil", i, err, len(clean))
	}
	if i, err := ValidateBatch(nil); i != 0 || err != nil {
		t.Fatalf("empty batch: ValidateBatch = %d, %v", i, err)
	}
}

func TestWithHelpers(t *testing.T) {
	src := guid.New(guid.KindEntity)
	subj := guid.New(guid.KindPerson)
	rng := guid.New(guid.KindRange)
	e := New(ctxtype.LocationSightingDoor, src, 1, t0, nil).
		WithSubject(subj).WithRange(rng).WithQuality(0.9)
	if e.Subject != subj || e.Range != rng || e.Quality != 0.9 {
		t.Fatal("With helpers did not set fields")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src := guid.New(guid.KindDevice)
	subj := guid.New(guid.KindPerson)
	e := New(ctxtype.LocationSightingDoor, src, 42, t0, map[string]any{
		"door": "L10.01", "badge": subj.String(),
	}).WithSubject(subj).WithQuality(0.9)
	data, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != e.ID || back.Type != e.Type || back.Source != e.Source ||
		back.Subject != e.Subject || back.Seq != e.Seq || !back.Time.Equal(e.Time) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
	if d, ok := back.Str("door"); !ok || d != "L10.01" {
		t.Fatal("payload string lost")
	}
	if g, ok := back.GUIDField("badge"); !ok || g != subj {
		t.Fatal("payload GUID lost")
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := Decode([]byte(`{"type":"x"}`)); err == nil {
		t.Fatal("invalid event accepted")
	}
}

func TestFloatAccessor(t *testing.T) {
	src := guid.New(guid.KindDevice)
	e := New(ctxtype.TemperatureCelsius, src, 1, t0, map[string]any{
		"f": 1.5, "i": 3, "i64": int64(4), "s": "x",
	})
	if v, ok := e.Float("f"); !ok || v != 1.5 {
		t.Error("float64 field")
	}
	if v, ok := e.Float("i"); !ok || v != 3 {
		t.Error("int field")
	}
	if v, ok := e.Float("i64"); !ok || v != 4 {
		t.Error("int64 field")
	}
	if _, ok := e.Float("s"); ok {
		t.Error("string extracted as float")
	}
	if _, ok := e.Float("missing"); ok {
		t.Error("missing key extracted")
	}
	// After a JSON round trip ints become float64; accessor must still work.
	data, _ := e.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Float("i"); !ok || v != 3 {
		t.Error("int field after round trip")
	}
}

func TestFilterMatches(t *testing.T) {
	src := guid.New(guid.KindDevice)
	subj := guid.New(guid.KindPerson)
	rng := guid.New(guid.KindRange)
	e := New(ctxtype.LocationSightingDoor, src, 1, t0, nil).
		WithSubject(subj).WithRange(rng).WithQuality(0.9)

	cases := []struct {
		name string
		f    Filter
		want bool
	}{
		{"empty matches all", Filter{}, true},
		{"exact type", Filter{Type: ctxtype.LocationSightingDoor}, true},
		{"ancestor type", Filter{Type: ctxtype.LocationSighting}, true},
		{"wildcard", Filter{Type: ctxtype.Wildcard}, true},
		{"other type", Filter{Type: ctxtype.PrinterStatus}, false},
		{"source match", Filter{Source: src}, true},
		{"source mismatch", Filter{Source: subj}, false},
		{"subject match", Filter{Subject: subj}, true},
		{"subject mismatch", Filter{Subject: src}, false},
		{"range match", Filter{Range: rng}, true},
		{"range mismatch", Filter{Range: guid.New(guid.KindRange)}, false},
		{"quality pass", Filter{MinQuality: 0.5}, true},
		{"quality fail", Filter{MinQuality: 0.95}, false},
		{"combined", Filter{Type: ctxtype.LocationSighting, Subject: subj, MinQuality: 0.5}, true},
	}
	for _, c := range cases {
		if got := c.f.Matches(e); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFilterMatchesInWithEquivalence(t *testing.T) {
	reg := ctxtype.NewRegistry()
	src := guid.New(guid.KindDevice)
	wlan := New(ctxtype.LocationSightingWLAN, src, 1, t0, nil)
	f := Filter{Type: ctxtype.LocationSightingDoor}
	if f.Matches(wlan) {
		t.Fatal("plain matching should not cross equivalence classes")
	}
	if !f.MatchesIn(&wlan, reg) {
		t.Fatal("registry matching should accept equivalent type")
	}
}

func TestStringForms(t *testing.T) {
	src := guid.New(guid.KindDevice)
	e := New(ctxtype.PrinterStatus, src, 9, t0, nil)
	if s := e.String(); s == "" {
		t.Fatal("empty String")
	}
	f := Filter{Type: ctxtype.PrinterStatus, Source: src, Subject: src}
	if s := f.String(); s == "" {
		t.Fatal("empty filter String")
	}
}

// Property: every event matches the filter formed from its own fields.
func TestPropSelfFilterMatches(t *testing.T) {
	types := []ctxtype.Type{
		ctxtype.LocationSightingDoor, ctxtype.PrinterStatus,
		ctxtype.TemperatureCelsius, ctxtype.PathRoute,
	}
	f := func(ti uint8, seq uint64, q uint8) bool {
		e := New(types[int(ti)%len(types)], guid.New(guid.KindEntity), seq, t0, nil).
			WithSubject(guid.New(guid.KindPerson)).
			WithQuality(float64(q%100)/100 + 0.01)
		self := Filter{Type: e.Type, Source: e.Source, Subject: e.Subject, MinQuality: e.Quality}
		return self.Matches(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is the identity on the comparable fields.
func TestPropEncodeDecodeIdentity(t *testing.T) {
	f := func(seq uint64) bool {
		e := New(ctxtype.TemperatureCelsius, guid.New(guid.KindDevice), seq, t0,
			map[string]any{"value": float64(seq % 100)})
		data, err := e.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		v, _ := back.Float("value")
		return back.ID == e.ID && back.Seq == e.Seq && v == float64(seq%100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	e := New(ctxtype.LocationSightingDoor, guid.New(guid.KindDevice), 1, t0,
		map[string]any{"door": "L10.01"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	e := New(ctxtype.LocationSightingDoor, guid.New(guid.KindDevice), 1, t0, nil)
	f := Filter{Type: ctxtype.LocationSighting}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !f.Matches(e) {
			b.Fatal("no match")
		}
	}
}
