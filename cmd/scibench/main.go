// Command scibench regenerates every experiment of DESIGN.md §4 (one per
// paper figure/claim) and prints the result tables.
//
//	scibench              # run everything (moderate sizes)
//	scibench -exp e1      # one experiment
//	scibench -exp e1 -big # larger parameter sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sci/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e16 or all")
	big := flag.Bool("big", false, "larger parameter sweeps (slower)")
	seed := flag.Int64("seed", 42, "simulation seed")
	jsonPath := flag.String("json", "", "write e16 rows and verdict to this file as JSON")
	flag.Parse()
	if err := run(*exp, *jsonPath, *big, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "scibench:", err)
		os.Exit(1)
	}
}

func run(exp, jsonPath string, big bool, seed int64) error {
	all := exp == "all"
	sizes := func(small, large []int) []int {
		if big {
			return large
		}
		return small
	}

	if all || exp == "e1" {
		rows, err := sim.RunE1(sizes([]int{16, 64, 128}, []int{16, 64, 256, 1024}), 1000, seed)
		if err != nil {
			return err
		}
		fmt.Println(sim.E1Table(rows))
	}
	if all || exp == "e2" {
		rows, err := sim.RunE2(sizes([]int{10, 100, 1000}, []int{10, 100, 1000, 5000}))
		if err != nil {
			return err
		}
		fmt.Println(sim.E2Table(rows))
	}
	if all || exp == "e3" {
		rows, err := sim.RunE3(sizes([]int{10, 100, 1000}, []int{10, 100, 1000, 10000}), 5)
		if err != nil {
			return err
		}
		fmt.Println(sim.E3Table(rows))
	}
	if all || exp == "e4" {
		rows, err := sim.RunE4(sizes([]int{1, 10, 100}, []int{1, 10, 100, 1000}), 200)
		if err != nil {
			return err
		}
		fmt.Println(sim.E4Table(rows))
	}
	if all || exp == "e5" {
		rows, err := sim.RunE5(sizes([]int{1, 50, 200}, []int{1, 50, 200, 500}))
		if err != nil {
			return err
		}
		fmt.Println(sim.E5Table(rows))
	}
	if all || exp == "e6" {
		rows, err := sim.RunE6(2000)
		if err != nil {
			return err
		}
		fmt.Println(sim.E6Table(rows))
	}
	if all || exp == "e7" {
		res, err := sim.RunE7()
		if err != nil {
			return err
		}
		fmt.Println(sim.E7Table(res))
	}
	if all || exp == "e8" {
		rows, err := sim.RunE8(sizes([]int{2, 16, 64}, []int{2, 16, 64, 256}))
		if err != nil {
			return err
		}
		fmt.Println(sim.E8Table(rows))
	}
	if all || exp == "e9" {
		res, err := sim.RunE9(8)
		if err != nil {
			return err
		}
		fmt.Println(sim.E9Table(res))
	}
	if all || exp == "e10" {
		rows, err := sim.RunE10(sizes([]int{1, 4, 16}, []int{1, 4, 16, 64}), 800, 4000)
		if err != nil {
			return err
		}
		fmt.Println(sim.E10Table(rows))
	}
	if all || exp == "e11" {
		events := 20000
		if big {
			events = 200000
		}
		rows, fleet, err := sim.RunE11(sizes([]int{2, 4}, []int{2, 4, 8, 16}), events, 64)
		if err != nil {
			return err
		}
		fmt.Println(sim.E11Table(rows))
		if fleet != nil {
			fmt.Println(sim.E11FleetTable(fleet))
		}
	}
	if all || exp == "e12" {
		hot := 20000
		if big {
			hot = 200000
		}
		rows, bp, err := sim.RunE12(hot, 64, 5*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Println(sim.E12Table(rows))
		if bp != nil {
			fmt.Println(sim.E12BackpressureTable(bp))
		}
	}
	if all || exp == "e13" {
		res, err := sim.RunE13(64, 5*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Println(sim.E13Table(res))
		fmt.Println(sim.E13AckTable(res))
	}
	if all || exp == "e14" {
		res, err := sim.RunE14(2000, 64, 5*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Println(sim.E14Table(res))
	}
	if all || exp == "e16" {
		rows, err := sim.RunE16(sizes([]int{32, 64, 128}, []int{32, 64, 128, 256}), 100)
		if err != nil {
			return err
		}
		fmt.Println(sim.E16Table(rows))
		checkErr := sim.E16Check(rows)
		if jsonPath != "" {
			verdict := "pass"
			if checkErr != nil {
				verdict = checkErr.Error()
			}
			artifact := struct {
				Rows  []sim.E16Row `json:"rows"`
				Check string       `json:"check"`
			}{rows, verdict}
			blob, err := json.MarshalIndent(artifact, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
		}
		if checkErr != nil {
			return checkErr
		}
	}
	return nil
}
