// Package analysistest runs one analyzer over a fixture directory and
// checks its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory of ordinary .go files forming one package;
// imports resolve against the enclosing module, so fixtures exercise
// analyzers against the real sci/internal types. Every diagnostic must be
// matched by a want comment on its line, and every want comment must match
// exactly one diagnostic. //lint:allow suppressions are honoured, so
// negative fixtures prove the escape hatches too.
package analysistest

import (
	"path/filepath"
	"regexp"
	"testing"

	"sci/internal/analysis"
)

// wantRx extracts the quoted regexps of a want comment; both "double" and
// `backtick` quoting are accepted, as in upstream analysistest.
var wantRx = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var quotedRx = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run loads dir through analysis.Load, as the package at its full import
// path, applies a and compares diagnostics with the fixture's want
// comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(abs, []string{"."})
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading fixture: %d packages, %v", len(pkgs), err)
	}
	pkg := pkgs[0]
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a}, false)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRx.FindAllStringSubmatch(m[1], -1) {
					pat := q[1]
					if q[2] != "" {
						pat = q[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.rx)
		}
	}
}
