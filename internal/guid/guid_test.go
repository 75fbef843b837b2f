package guid

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewAssignsKindAndUniqueness(t *testing.T) {
	seen := make(map[GUID]bool)
	for i := 0; i < 1000; i++ {
		g := New(KindEntity)
		if g.Kind() != KindEntity {
			t.Fatalf("kind = %v, want %v", g.Kind(), KindEntity)
		}
		if g.IsNil() {
			t.Fatal("New returned nil GUID")
		}
		if seen[g] {
			t.Fatalf("duplicate GUID generated: %v", g)
		}
		seen[g] = true
	}
}

// TestNewConcurrentUnique: a million GUIDs drawn from 8 goroutines at once,
// each goroutine with its own kind, hold no duplicate, and each keeps its
// kind byte.
func TestNewConcurrentUnique(t *testing.T) {
	const workers, total = 8, 1_000_000
	all := make([]GUID, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part []GUID, kind Kind) {
			defer wg.Done()
			for i := range part {
				part[i] = New(kind)
			}
		}(all[w*total/workers:(w+1)*total/workers], Kind(1+w))
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		want := Kind(1 + w)
		for _, g := range all[w*total/workers : (w+1)*total/workers] {
			if g.Kind() != want {
				t.Fatalf("kind = %v, want %v", g.Kind(), want)
			}
		}
	}
	slices.SortFunc(all, Compare)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("duplicate GUID %v among %d draws", all[i], total)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindUnknown:       "unknown",
		KindPerson:        "person",
		KindServer:        "server",
		KindApplication:   "application",
		KindConfiguration: "configuration",
		Kind(200):         "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", byte(k), got, want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if KindUnknown.Valid() {
		t.Error("KindUnknown should not be valid")
	}
	if !KindPerson.Valid() || !KindRange.Valid() {
		t.Error("defined kinds should be valid")
	}
	if Kind(250).Valid() {
		t.Error("out-of-range kind should not be valid")
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPerson, KindDevice, KindServer, KindQuery} {
		g := New(k)
		parsed, err := Parse(g.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", g.String(), err)
		}
		if parsed != g {
			t.Fatalf("round trip mismatch: %v != %v", parsed, g)
		}
		// Bare hex form must parse too.
		parsed, err = Parse(g.Hex())
		if err != nil {
			t.Fatalf("Parse bare hex: %v", err)
		}
		if parsed != g {
			t.Fatalf("bare hex round trip mismatch")
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"person:",
		"person:abcd",
		strings.Repeat("g", Digits),         // non-hex
		"person:" + strings.Repeat("0", 31), // too short
		"person:" + strings.Repeat("0", 33), // too long
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("bogus")
}

func TestFromBytes(t *testing.T) {
	b := make([]byte, Size)
	b[0] = byte(KindPlace)
	b[15] = 0xff
	g, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind() != KindPlace || g[15] != 0xff {
		t.Fatalf("FromBytes content mismatch: %v", g)
	}
	if _, err := FromBytes(b[:8]); err == nil {
		t.Error("FromBytes accepted short slice")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New(KindDevice)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back GUID
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Fatalf("JSON round trip mismatch: %v != %v", back, g)
	}
}

func TestDigit(t *testing.T) {
	g := MustParse("0123456789abcdef0123456789abcdef")
	want := "0123456789abcdef0123456789abcdef"
	for i := 0; i < Digits; i++ {
		d := g.Digit(i)
		var c byte
		if d < 10 {
			c = '0' + d
		} else {
			c = 'a' + d - 10
		}
		if c != want[i] {
			t.Fatalf("Digit(%d) = %c, want %c", i, c, want[i])
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := MustParse("00000000000000000000000000000000")
	if got := CommonPrefixLen(a, a); got != Digits {
		t.Fatalf("identical GUIDs: prefix %d, want %d", got, Digits)
	}
	b := MustParse("0000000f000000000000000000000000")
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Fatalf("prefix = %d, want 7", got)
	}
	c := MustParse("10000000000000000000000000000000")
	if got := CommonPrefixLen(a, c); got != 0 {
		t.Fatalf("prefix = %d, want 0", got)
	}
	d := MustParse("00f00000000000000000000000000000")
	if got := CommonPrefixLen(a, d); got != 2 {
		t.Fatalf("prefix = %d, want 2", got)
	}
}

func TestCompareAndLess(t *testing.T) {
	a := MustParse("00000000000000000000000000000001")
	b := MustParse("00000000000000000000000000000002")
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Fatal("Compare ordering broken")
	}
	if !Less(a, b) || Less(b, a) || Less(a, a) {
		t.Fatal("Less ordering broken")
	}
}

// TestCompareMatchesBytes: Compare is the byte-lexicographic order, on
// seeded random pairs and on pairs that differ in one byte at either end
// of either 64-bit half.
func TestCompareMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(a, b GUID) {
		t.Helper()
		if got, want := Compare(a, b), bytes.Compare(a[:], b[:]); got != want {
			t.Fatalf("Compare(%s, %s) = %d, bytes.Compare = %d", a.Hex(), b.Hex(), got, want)
		}
	}
	for i := 0; i < 10_000; i++ {
		var a, b GUID
		rng.Read(a[:])
		rng.Read(b[:])
		check(a, b)
		check(b, a)
		check(a, a)
		for _, at := range []int{0, 7, 8, 15} {
			c := a
			c[at] = byte(rng.Intn(256))
			check(a, c)
			check(c, a)
		}
	}
}

func TestDistanceAndCloserTo(t *testing.T) {
	target := MustParse("ff000000000000000000000000000000")
	near := MustParse("fe000000000000000000000000000000")
	far := MustParse("00000000000000000000000000000000")
	if !CloserTo(target, near, far) {
		t.Fatal("near should be closer to target than far")
	}
	if CloserTo(target, far, near) {
		t.Fatal("far should not be closer than near")
	}
	if CloserTo(target, near, near) {
		t.Fatal("CloserTo must be a strict order")
	}
	d := Distance(target, target)
	if !d.IsNil() {
		t.Fatal("Distance(x,x) must be zero")
	}
}

func TestSort(t *testing.T) {
	gs := []GUID{
		MustParse("00000000000000000000000000000003"),
		MustParse("00000000000000000000000000000001"),
		MustParse("00000000000000000000000000000002"),
	}
	Sort(gs)
	for i := 1; i < len(gs); i++ {
		if !Less(gs[i-1], gs[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSet(t *testing.T) {
	a, b, c := New(KindEntity), New(KindEntity), New(KindEntity)
	s := NewSet(a, b)
	if !s.Has(a) || !s.Has(b) || s.Has(c) {
		t.Fatal("membership broken")
	}
	s.Add(c)
	if !s.Has(c) {
		t.Fatal("Add failed")
	}
	s.Remove(b)
	if s.Has(b) {
		t.Fatal("Remove failed")
	}
	members := s.Members()
	if len(members) != 2 {
		t.Fatalf("Members len = %d, want 2", len(members))
	}
	for i := 1; i < len(members); i++ {
		if !Less(members[i-1], members[i]) {
			t.Fatal("Members not sorted")
		}
	}
}

// randomGUID produces a deterministic pseudo-random GUID for property tests.
func randomGUID(r *rand.Rand) GUID {
	var g GUID
	for i := range g {
		g[i] = byte(r.Intn(256))
	}
	return g
}

// TestSortedMatchesModel: NewSorted copies, sorts and deduplicates its
// input, a later write to the input or to Members reaches no set, and Has
// agrees with a map on members, strangers and GUIDs that share a member's
// first eight bytes. The JSON form is an array that decodes back to an
// equal set.
func TestSortedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func() GUID {
		var g GUID
		rng.Read(g[:])
		return g
	}
	if s := NewSorted(); s.Len() != 0 || s.Has(Nil) || s.Members() != nil {
		t.Fatalf("empty set: Len %d, Members %v", s.Len(), s.Members())
	}
	for round := 0; round < 200; round++ {
		in := make([]GUID, rng.Intn(40))
		for i := range in {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				in[i] = in[rng.Intn(i)] // a duplicate
			case i > 0 && rng.Intn(4) == 0:
				in[i] = in[rng.Intn(i)] // same first word, other second word
				rng.Read(in[i][8:])
			default:
				in[i] = random()
			}
		}
		model := NewSet(in...)
		want := model.Members()
		s := NewSorted(in...)
		for i := range in {
			in[i] = Nil
		}
		if s.Len() != len(want) || !slices.Equal(s.Members(), want) {
			t.Fatalf("round %d: Members = %v, want %v", round, s.Members(), want)
		}
		if len(want) > 0 {
			s.Members()[0] = Nil
		}
		for i, g := range want {
			if s.At(i) != g || !s.Has(g) {
				t.Fatalf("round %d: At(%d) = %v, Has = %v, want member %v", round, i, s.At(i), s.Has(g), g)
			}
			near := g
			near[15] ^= 1
			if s.Has(near) != model.Has(near) {
				t.Fatalf("round %d: Has(%v) = %v, model %v", round, near, s.Has(near), model.Has(near))
			}
		}
		if stranger := random(); s.Has(stranger) != model.Has(stranger) {
			t.Fatalf("round %d: Has(stranger) = %v", round, s.Has(stranger))
		}

		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var list []GUID
		if err := json.Unmarshal(data, &list); err != nil || !slices.Equal(list, want) {
			t.Fatalf("round %d: JSON %s is not the array of members (%v)", round, data, err)
		}
		var back Sorted
		if err := json.Unmarshal(data, &back); err != nil || !slices.Equal(back.Members(), want) {
			t.Fatalf("round %d: decoded %v, want %v (%v)", round, back.Members(), want, err)
		}
	}
}

func TestPropParseFormatRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGUID(rand.New(rand.NewSource(seed)))
		parsed, err := Parse(g.String())
		return err == nil && parsed == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCommonPrefixSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomGUID(r), randomGUID(r)
		return CommonPrefixLen(a, b) == CommonPrefixLen(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPrefixConsistentWithDigits(t *testing.T) {
	// CommonPrefixLen(a,b) == number of leading equal digits.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomGUID(r), randomGUID(r)
		p := CommonPrefixLen(a, b)
		for i := 0; i < p; i++ {
			if a.Digit(i) != b.Digit(i) {
				return false
			}
		}
		if p < Digits && a.Digit(p) == b.Digit(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCompareAntisymmetricTransitiveish(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomGUID(r), randomGUID(r)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropXORDistanceIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomGUID(r), randomGUID(r)
		d := Distance(a, b)
		// d ^ b == a (XOR involution).
		back := Distance(d, b)
		return back == a && Distance(a, a).IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New(KindEntity)
	}
}

func BenchmarkCommonPrefixLen(b *testing.B) {
	x, y := New(KindEntity), New(KindEntity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CommonPrefixLen(x, y)
	}
}
