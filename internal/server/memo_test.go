package server

import (
	"fmt"
	"math/rand"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/profile"
	"sci/internal/query"
)

// churnTypes is how many base types the memo oracle's providers output.
const churnTypes = 12

func churnType(i int) ctxtype.Type { return ctxtype.Type(fmt.Sprintf("churn.t%02d", i)) }

// TestProfileMemoIsPureMemo is the memo's oracle: seeded churn of the
// profile store (Put, Remove, re-profile) and of the type registry
// (SetQuality, DeclareEquivalent), with every pattern profile query after
// each step answered exactly as a fresh FindProviders answers it, in a
// slice whose capacity is its length. A step that moves neither store
// must leave every answer the very slice it was.
func TestProfileMemoIsPureMemo(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	rnd := rand.New(rand.NewSource(1))
	patterns := []ctxtype.Type{"churn"}
	for i := 0; i < churnTypes; i++ {
		patterns = append(patterns, churnType(i))
	}
	var stored []guid.GUID
	randomProfile := func(id guid.GUID) profile.Profile {
		p := profile.Profile{Entity: id, Name: "churn-" + id.Short(), Quality: float64(rnd.Intn(4)) / 4}
		for n := 1 + rnd.Intn(2); n > 0; n-- {
			out := churnType(rnd.Intn(churnTypes))
			if rnd.Intn(3) == 0 {
				out += ".fine"
			}
			p.Outputs = append(p.Outputs, out)
		}
		return p
	}
	answers := make(map[ctxtype.Type][]*profile.Profile)
	check := func(step int, moved bool) {
		t.Helper()
		for _, want := range patterns {
			res, err := w.rng.Submit(query.New(w.caa.ID(), query.What{Pattern: want}, query.ModeProfile))
			if err != nil {
				t.Fatal(err)
			}
			cands := w.rng.Profiles().FindProviders(want, w.rng.Types())
			if len(res.Profiles) != len(cands) || cap(res.Profiles) != len(res.Profiles) {
				t.Fatalf("step %d, %s: answered %d profiles (capacity %d), FindProviders finds %d", step, want, len(res.Profiles), cap(res.Profiles), len(cands))
			}
			for i, c := range cands {
				if res.Profiles[i] != c.Profile {
					t.Fatalf("step %d, %s: profile %d is %s, FindProviders has %s", step, want, i, res.Profiles[i].Name, c.Profile.Name)
				}
			}
			if prev, ok := answers[want]; ok && !moved && len(prev) > 0 && &prev[0] != &res.Profiles[0] {
				t.Fatalf("step %d, %s: an unmoved store was answered with a new slice", step, want)
			}
			answers[want] = res.Profiles
		}
	}
	check(-1, true)
	for step := 0; step < 400; step++ {
		gp, gt := w.rng.Profiles().Generation(), w.rng.Types().Generation()
		switch op := rnd.Intn(6); {
		case op == 0 || len(stored) == 0:
			id := guid.New(guid.KindDevice)
			if err := w.rng.Profiles().Put(randomProfile(id)); err != nil {
				t.Fatal(err)
			}
			stored = append(stored, id)
		case op == 1:
			i := rnd.Intn(len(stored))
			w.rng.Profiles().Remove(stored[i])
			stored = append(stored[:i], stored[i+1:]...)
		case op == 2:
			if err := w.rng.Profiles().Put(randomProfile(stored[rnd.Intn(len(stored))])); err != nil {
				t.Fatal(err)
			}
		case op == 3:
			w.rng.Types().SetQuality(churnType(rnd.Intn(churnTypes)), float64(1+rnd.Intn(4))/4)
		case op == 4:
			if err := w.rng.Types().DeclareEquivalent(churnType(rnd.Intn(churnTypes)), churnType(rnd.Intn(churnTypes))); err != nil {
				t.Fatal(err)
			}
		default:
			// No mutation: every answer must come from the memo.
		}
		moved := gp != w.rng.Profiles().Generation() || gt != w.rng.Types().Generation()
		check(step, moved)
	}
}

// TestHotpathProfileMemoZeroAlloc: a warm memo answers a pattern without
// allocating.
func TestHotpathProfileMemoZeroAlloc(t *testing.T) {
	w := newWorld(t)
	defer w.rng.Close()
	want := ctxtype.LocationSightingDoor
	found := w.rng.findProfiles(want)
	allocs := testing.AllocsPerRun(500, func() {
		ps, ok := w.rng.memoised(want)
		if !ok || len(ps) != len(found) || &ps[0] != &found[0] {
			t.Fatal("the memo did not answer with the slice it memoised")
		}
	})
	if allocs != 0 {
		t.Fatalf("a memo hit makes %v allocations, want 0", allocs)
	}
}
