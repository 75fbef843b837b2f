// Command scilint runs the repository's invariant analyzers — the
// per-package passes (clockcheck, batchshare, guardedby, gaugekey) and the
// whole-program passes (lockorder, leakcheck, hotpath) from
// internal/analysis — over the given package patterns and exits non-zero
// on any diagnostic.
//
// Usage:
//
//	go run ./cmd/scilint ./...
//	go run ./cmd/scilint -only lockorder,leakcheck ./internal/scinet/
//	go run ./cmd/scilint -json ./...     # machine-readable findings+stats
//	go run ./cmd/scilint -stats ./...    # counts only, for the CI artifact
//	go run ./cmd/scilint -annotate ./... # dry-run: print suggested annotations
//
// -json and -stats also carry the whole-program reachability report
// (interproc.FindUnreached): the exported names of internal/ that no
// deployed program reaches, listed under -json and counted under -stats.
// The report is never a gate.
//
// Suppressions: //lint:allow <analyzer> <reason> on the flagged line or the
// line above; the reason must be longer than ten characters. See
// internal/analysis/doc.go for the enforced contracts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"sci/internal/analysis"
	"sci/internal/analysis/batchshare"
	"sci/internal/analysis/clockcheck"
	"sci/internal/analysis/gaugekey"
	"sci/internal/analysis/guardedby"
	"sci/internal/analysis/hotpath"
	"sci/internal/analysis/interproc"
	"sci/internal/analysis/leakcheck"
	"sci/internal/analysis/lockorder"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the JSON document -json emits.
type report struct {
	Findings  []finding            `json:"findings"`
	Stats     statsDoc             `json:"stats"`
	Unreached *interproc.Unreached `json:"unreached"`
}

// statsDoc is the JSON document -stats emits: the analyzer counts plus
// the size of each group of the reachability report.
type statsDoc struct {
	*analysis.Stats
	Unreached map[string]int `json:"unreached"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and stats as JSON on stdout")
	statsOnly := flag.Bool("stats", false, "emit only the finding/suppression counts and the unreached-group sizes as JSON (exit 0 regardless of findings)")
	annotate := flag.Bool("annotate", false, "dry run: print a suggested //lint:allow annotation for each finding and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: scilint [-only a,b] [-json|-stats|-annotate] <packages>\n\nanalyzers:\n")
		for _, a := range all() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := analysis.Select(all(), *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scilint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := analysis.Load("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scilint: %v\n", err)
		os.Exit(2)
	}
	var fset *token.FileSet
	for _, p := range pkgs {
		fset = p.Fset
	}
	diags, stats, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scilint: %v\n", err)
		os.Exit(2)
	}
	var unreached *interproc.Unreached
	var counts statsDoc
	if *statsOnly || *asJSON {
		unreached = interproc.FindUnreached(pkgs, "sci")
		counts = statsDoc{stats, map[string]int{"sim_only": len(unreached.SimOnly), "nothing": len(unreached.Nothing)}}
	}

	switch {
	case *statsOnly:
		json.NewEncoder(os.Stdout).Encode(counts)
		return
	case *asJSON:
		rep := report{Findings: []finding{}, Stats: counts, Unreached: unreached}
		for _, d := range diags {
			p := fset.Position(d.Pos)
			rep.Findings = append(rep.Findings, finding{
				Analyzer: d.Analyzer, File: p.Filename, Line: p.Line, Col: p.Column, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	case *annotate:
		for _, d := range diags {
			p := fset.Position(d.Pos)
			fmt.Printf("%s:%d: %s (%s)\n", p.Filename, p.Line, d.Message, d.Analyzer)
			fmt.Printf("\tsuggested, directly above the line:\n")
			fmt.Printf("\t//lint:allow %s <why this specific site is safe — more than ten chars>\n", d.Analyzer)
		}
		fmt.Printf("%d finding(s); no files were changed\n", len(diags))
		return
	default:
		for _, d := range diags {
			p := fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: %s (%s)\n", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scilint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func all() []*analysis.Analyzer {
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
