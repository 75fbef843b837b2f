package interproc_test

import (
	"strings"
	"testing"

	"sci/internal/analysis"
	"sci/internal/analysis/interproc"
)

// TestFindUnreached runs the report over a fixture module whose root
// package, deployed program, experiments and candidates each take one
// role: an unreferenced func is reported, a method that satisfies an
// interface is not, the exported methods of a type the root package
// aliases are not, and a func only the experiments call is grouped apart.
func TestFindUnreached(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool; skipped in -short")
	}
	const mod = "sci/internal/analysis/interproc/testdata/src/mod"
	pkgs, err := analysis.Load(".", []string{"./testdata/src/mod/..."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	rep := interproc.FindUnreached(pkgs, mod)
	names := func(entries []string) map[string]bool {
		out := map[string]bool{}
		for _, e := range entries {
			f := strings.Fields(e)
			out[strings.TrimPrefix(f[2], mod+"/internal/")] = true
		}
		return out
	}
	nothing, simOnly := names(rep.Nothing), names(rep.SimOnly)
	for _, want := range []string{"inner.Dead", "inner.Impl.Unused"} {
		if !nothing[want] {
			t.Errorf("%s not reported as reached from nothing: %v", want, rep.Nothing)
		}
	}
	if !simOnly["inner.SimOnly"] || len(simOnly) != 1 {
		t.Errorf("sim-only group = %v, want only inner.SimOnly", rep.SimOnly)
	}
	for _, reached := range []string{"inner.Impl.Describe", "inner.Thing.Method", "inner.Used", "inner.NewImpl", "inner.Describer"} {
		if nothing[reached] || simOnly[reached] {
			t.Errorf("%s reported unreached", reached)
		}
	}
	if len(nothing) != 2 {
		t.Errorf("reached from nothing = %v, want inner.Dead and inner.Impl.Unused", rep.Nothing)
	}
}
