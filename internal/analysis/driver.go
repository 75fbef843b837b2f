package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
	used     bool
}

// minAllowReason is the shortest acceptable suppression reason, exclusive:
// a reason of 10 characters or fewer ("TODO", "see above", "perf") is not
// an audit trail, and CI fails on it like any other finding.
const minAllowReason = 10

// parseAllows collects every //lint:allow directive in the package,
// reporting malformed ones (an allow without a reason — or with a
// throwaway one — is itself a finding: the reason is the audit trail that
// makes the escape hatch reviewable).
func parseAllows(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) []*allowDirective {
	var out []*allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lint",
						Message:  "malformed suppression: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				reason := strings.Join(fields[1:], " ")
				if len(reason) <= minAllowReason {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lint",
						Message:  fmt.Sprintf("suppression reason %q is too short (> %d chars required): say why the invariant is safe to waive here", reason, minAllowReason),
					})
					continue
				}
				out = append(out, &allowDirective{
					analyzer: fields[0],
					reason:   reason,
					line:     fset.Position(c.Pos()).Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// suppress drops diagnostics covered by an allow directive for the same
// analyzer on the same line or the line directly above, then reports any
// directive that suppressed nothing (stale hatches must not linger once
// the code they excused is gone). Staleness is only judged for analyzers
// in ran: under -only, an allow for an analyzer that did not run proves
// nothing either way.
func suppress(fset *token.FileSet, diags []Diagnostic, allows []*allowDirective, ran map[string]bool) []Diagnostic {
	byFileLine := make(map[string]map[int][]*allowDirective)
	for _, a := range allows {
		file := fset.Position(a.pos).Filename
		if byFileLine[file] == nil {
			byFileLine[file] = make(map[int][]*allowDirective)
		}
		byFileLine[file][a.line] = append(byFileLine[file][a.line], a)
	}
	var kept []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, line := range []int{p.Line, p.Line - 1} {
			for _, a := range byFileLine[p.Filename][line] {
				if a.analyzer == d.Analyzer {
					a.used = true
					matched = true
				}
			}
			if matched {
				break
			}
		}
		if !matched {
			kept = append(kept, d)
		}
	}
	for _, a := range allows {
		if !a.used && ran[a.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      a.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("unused suppression for %s (%s): nothing here trips that analyzer", a.analyzer, a.reason),
			})
		}
	}
	return kept
}

// Stats aggregates one run's finding and suppression counts per analyzer —
// the payload of `scilint -stats` and the `make lint-stats` CI artifact,
// so suppression growth is visible as a trend, not just a diff.
type Stats struct {
	Findings     map[string]int `json:"findings"`     // surviving diagnostics per analyzer
	Suppressions map[string]int `json:"suppressions"` // used //lint:allow directives per analyzer
}

func newStats() *Stats {
	return &Stats{Findings: make(map[string]int), Suppressions: make(map[string]int)}
}

// runPackages applies the analyzers to the loaded packages: per-package
// passes first, then the whole-program passes, then one global suppression
// step (a program-level diagnostic must honour an allow in whichever file
// it lands in).
func runPackages(pkgs []*Package, analyzers []*Analyzer, applyFilter bool) ([]Diagnostic, *Stats, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	var fset *token.FileSet
	for _, p := range pkgs {
		fset = p.Fset
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if applyFilter && !a.appliesTo(p.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.TypesInfo,
				report:    collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, p.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		prog := &Program{
			Analyzer:    a,
			Fset:        fset,
			Packages:    pkgs,
			applyFilter: applyFilter,
			report:      collect,
		}
		if err := a.RunProgram(prog); err != nil {
			return nil, nil, fmt.Errorf("%s (program): %v", a.Name, err)
		}
	}
	var allows []*allowDirective
	for _, p := range pkgs {
		allows = append(allows, parseAllows(p.Fset, p.Files, collect)...)
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	diags = suppress(fset, diags, allows, ran)
	stats := newStats()
	for _, d := range diags {
		stats.Findings[d.Analyzer]++
	}
	for _, a := range allows {
		if a.used {
			stats.Suppressions[a.analyzer]++
		}
	}
	if fset != nil {
		sortDiags(fset, diags)
	}
	return diags, stats, nil
}

// RunPackage applies the analyzers to one loaded package, honouring
// //lint:allow suppressions. When applyFilter is false the analyzers'
// package filters are ignored (analysistest mode). Whole-program analyzers
// run against a program of this single package.
func RunPackage(p *Package, analyzers []*Analyzer, applyFilter bool) ([]Diagnostic, error) {
	diags, _, err := runPackages([]*Package{p}, analyzers, applyFilter)
	return diags, err
}

// Run applies every analyzer to packages Load returned, returning the
// surviving diagnostics sorted by position plus the per-analyzer
// finding/suppression counts.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *Stats, error) {
	return runPackages(pkgs, analyzers, true)
}

// Select filters analyzers by a comma-separated name list (the -only
// flag). An empty list selects everything; an unknown name returns an
// error naming the known analyzers.
func Select(analyzers []*Analyzer, only string) ([]*Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return analyzers, nil
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	var known []string
	for _, a := range analyzers {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var sel []*Analyzer
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
		sel = append(sel, a)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("empty -only selection (known: %s)", strings.Join(known, ", "))
	}
	return sel, nil
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
