package analysis_test

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sci/internal/analysis"
	"sci/internal/analysis/batchshare"
	"sci/internal/analysis/clockcheck"
	"sci/internal/analysis/gaugekey"
	"sci/internal/analysis/guardedby"
	"sci/internal/analysis/hotpath"
	"sci/internal/analysis/leakcheck"
	"sci/internal/analysis/lockorder"
)

// suite returns the full analyzer set, the same list cmd/scilint registers.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		clockcheck.Analyzer,
		batchshare.Analyzer,
		guardedby.Analyzer,
		gaugekey.Analyzer,
		lockorder.Analyzer,
		leakcheck.Analyzer,
		hotpath.Analyzer,
	}
}

// TestTreeIsLintClean runs the full analyzer suite over the repository the
// same way CI's scilint step does and fails on any diagnostic, so the
// invariants are enforced by `go test ./...` as well as by the dedicated CI
// step. New violations (or stale //lint:allow suppressions) break this test.
func TestTreeIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool; skipped in -short")
	}
	pkgs, err := analysis.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, _, err := analysis.Run(pkgs, suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		p := pkgs[0].Fset.Position(d.Pos)
		t.Errorf("%s:%d:%d: %s (%s)", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
	}
}

// TestSelectFiltersAnalyzers pins the -only flag's selection semantics:
// names resolve in any order, whitespace is tolerated, unknown names fail
// with the known set listed, and an empty selection is rejected.
func TestSelectFiltersAnalyzers(t *testing.T) {
	sel, err := analysis.Select(suite(), "lockorder, leakcheck,hotpath")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range sel {
		names = append(names, a.Name)
	}
	if got := strings.Join(names, ","); got != "lockorder,leakcheck,hotpath" {
		t.Fatalf("Select returned %q, want the three program analyzers", got)
	}
	if _, err := analysis.Select(suite(), "lockodrer"); err == nil ||
		!strings.Contains(err.Error(), "lockorder") {
		t.Fatalf("unknown-name error should list known analyzers, got %v", err)
	}
	if _, err := analysis.Select(suite(), " , "); err == nil {
		t.Fatal("blank selection should be rejected")
	}
}

// TestOnlyProgramAnalyzersCLI runs the actual scilint binary with
// -only=lockorder,leakcheck,hotpath over the repository: the flag plumbing
// (selection, suppression scoping to analyzers that ran, exit status) is
// exercised exactly as CI and developers invoke it.
func TestOnlyProgramAnalyzersCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/scilint; skipped in -short")
	}
	cmd := exec.Command("go", "run", "./cmd/scilint",
		"-only=lockorder,leakcheck,hotpath", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("scilint -only failed: %v\n%s", err, out)
	}
}

// TestRevertedFixIsCaught reverts one representative fix from the zero-
// finding sweep — ctxtype.HasAncestor's allocation-free boundary check,
// which sits on the publish fan-out under //lint:hotpath via
// dispatchRuns → matchesEvent → MatchesIn — in a scratch copy of the tree
// and verifies the hotpath analyzer turns red again. This is the guard
// that the clean state is held by the analyzers, not by convention.
func TestRevertedFixIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks the repository; skipped in -short")
	}
	tmp := t.TempDir()
	copyTree(t, "../..", tmp)

	path := filepath.Join(tmp, "internal/ctxtype/ctxtype.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fixed := `return len(t) > len(anc) && t[len(anc)] == '.' &&
		strings.HasPrefix(string(t), string(anc))`
	reverted := `return strings.HasPrefix(string(t), string(anc)+".")`
	if !strings.Contains(string(src), fixed) {
		t.Fatal("HasAncestor no longer matches the fixed form; update this test alongside it")
	}
	patched := strings.Replace(string(src), fixed, reverted, 1)
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs, err := analysis.Load(tmp, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, _, err := analysis.Run(pkgs, []*analysis.Analyzer{hotpath.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	fset := pkgs[0].Fset
	found := false
	for _, d := range diags {
		if d.Analyzer == "hotpath" && strings.Contains(d.Message, "allocates") {
			found = true
			t.Logf("caught: %s: %s", fset.Position(d.Pos), d.Message)
		}
	}
	if !found {
		t.Fatal("reverting the HasAncestor allocation fix produced no hotpath finding")
	}
}

// copyTree replicates the module (go.mod and every .go file outside .git)
// into dst so a test can mutate sources without touching the checkout.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
