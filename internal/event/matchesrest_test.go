package event

import (
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/guid"
)

// TestMatchesRestAgreesWithMatches pins the contract the dispatch index
// relies on: once the type constraint is satisfied, MatchesRest must agree
// with the full Matches on every other field.
func TestMatchesRestAgreesWithMatches(t *testing.T) {
	src := guid.New(guid.KindDevice)
	subj := guid.New(guid.KindPerson)
	rng := guid.New(guid.KindRange)
	at := time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)
	e := New(ctxtype.TemperatureCelsius, src, 1, at, nil).
		WithSubject(subj).WithRange(rng).WithQuality(0.8)

	cases := []struct {
		name string
		f    Filter
		want bool
	}{
		{"empty", Filter{}, true},
		{"source match", Filter{Source: src}, true},
		{"source mismatch", Filter{Source: guid.New(guid.KindDevice)}, false},
		{"subject match", Filter{Subject: subj}, true},
		{"subject mismatch", Filter{Subject: guid.New(guid.KindPerson)}, false},
		{"range match", Filter{Range: rng}, true},
		{"range mismatch", Filter{Range: guid.New(guid.KindRange)}, false},
		{"quality met", Filter{MinQuality: 0.5}, true},
		{"quality unmet", Filter{MinQuality: 0.9}, false},
		{"all met", Filter{Source: src, Subject: subj, Range: rng, MinQuality: 0.5}, true},
	}
	for _, tc := range cases {
		if got := tc.f.MatchesRest(&e); got != tc.want {
			t.Errorf("%s: MatchesRest = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.f.Matches(e); got != tc.want {
			t.Errorf("%s: Matches disagrees: %v, want %v", tc.name, got, tc.want)
		}
	}
}
