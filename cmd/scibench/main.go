// Command scibench runs the experiment registry, sim.Experiments: each entry
// reproduces the paper section, figure or subsystem promise its Claim
// names, prints its tables and checks its acceptance bars.
//
//	scibench                     # every experiment at the default sizes
//	scibench -exp e7             # one experiment
//	scibench -big                # larger parameter sweeps
//	scibench -json runs.json     # also write every run and its verdict
//
// It exits non-zero when any experiment fails a bar or cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sci/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: a registered name or all")
	big := flag.Bool("big", false, "larger parameter sweeps (slower)")
	seed := flag.Int64("seed", 42, "simulation seed")
	jsonPath := flag.String("json", "", "write every run (name, claim, tables, verdict) to this file as JSON")
	flag.Parse()
	if err := run(*exp, *jsonPath, *big, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "scibench:", err)
		os.Exit(1)
	}
}

// result is one experiment run as -json records it; Verdict is "pass" or
// the failure.
type result struct {
	Name    string      `json:"name"`
	Claim   string      `json:"claim"`
	Tables  []sim.Table `json:"tables"`
	Verdict string      `json:"verdict"`
}

func run(exp, jsonPath string, big bool, seed int64) error {
	scale := sim.Default
	if big {
		scale = sim.Big
	}
	var names []string
	var results []result
	failed := 0
	for _, e := range sim.Experiments {
		names = append(names, e.Name)
		if exp != "all" && exp != e.Name {
			continue
		}
		fmt.Printf("== %s: %s\n\n", e.Name, e.Claim)
		tables, err := e.Run(scale, seed)
		for _, t := range tables {
			fmt.Println(t)
		}
		verdict := "pass"
		if err != nil {
			verdict = err.Error()
			failed++
			fmt.Fprintf(os.Stderr, "scibench: %s failed:\n%v\n\n", e.Name, err)
		}
		results = append(results, result{e.Name, e.Claim, tables, verdict})
	}
	if len(results) == 0 {
		return fmt.Errorf("unknown experiment %q; registered: %s", exp, strings.Join(names, ", "))
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(results))
	}
	return nil
}
