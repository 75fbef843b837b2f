package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a as a share of a, positive when
// worse, given the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareRecords prints one row per metric × workload: the medians, how
// much worse the new one is, and the verdict against the metric's bound. A
// metric whose run-to-run spread exceeds its bound cannot carry a verdict
// and is reported unresolved, unless every new run beats every old one.
// Per-layer metrics have no bound; their rows only show the movement.
func compareRecords(oldPath, newPath string) error {
	o, err := loadRecord(oldPath)
	if err != nil {
		return err
	}
	n, err := loadRecord(newPath)
	if err != nil {
		return err
	}
	if o.Env.CPUModel != n.Env.CPUModel || o.Env.GOMAXPROCS != n.Env.GOMAXPROCS || o.Env.RunSeconds != n.Env.RunSeconds {
		fmt.Printf("# WARNING: environments differ (%s/%d procs/%d s vs %s/%d procs/%d s)\n",
			o.Env.CPUModel, o.Env.GOMAXPROCS, o.Env.RunSeconds, n.Env.CPUModel, n.Env.GOMAXPROCS, n.Env.RunSeconds)
	}
	fmt.Printf("%-14s %-42s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "spread", "verdict")
	regressions := 0
	for _, wd := range workloadDefs {
		ow, nw := o.Workloads[wd.Name], n.Workloads[wd.Name]
		if ow == nil || nw == nil {
			continue
		}
		for _, d := range endToEnd {
			os_, ns := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if os_ == nil || ns == nil {
				continue
			}
			worse := worseBy(os_.Median, ns.Median, d.Better)
			spread := quartileSpread(os_.Values)
			if s := quartileSpread(ns.Values); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > d.Bound && !allBetter(os_.Values, ns.Values, d.Better):
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-14s %-42s %14.6g %14.6g %+8.1f%% %6.0f%% %6.1f%%  %s\n", wd.Name, d.Name,
				os_.Median, ns.Median, worse*100, d.Bound*100, spread*100, verdict)
		}
		if nw.Failed > ow.Failed {
			fmt.Printf("%-14s %-42s %14d %14d %35s\n", wd.Name, "failed", ow.Failed, nw.Failed, "REGRESSION")
			regressions++
		}
		for _, d := range perLayer {
			ov, ok1 := ow.PerLayer[d.Name]
			nv, ok2 := nw.PerLayer[d.Name]
			if ok1 && ok2 {
				fmt.Printf("%-14s %-42s %14.6g %14.6g %+8.1f%%\n", wd.Name, d.Name, ov, nv, worseBy(ov, nv, d.Better)*100)
			}
		}
	}
	for _, d := range perLayer {
		ov, ok1 := o.Isolated[d.Name]
		nv, ok2 := n.Isolated[d.Name]
		if ok1 && ok2 {
			fmt.Printf("%-14s %-42s %14.6g %14.6g %+8.1f%%\n", "isolated", d.Name, ov, nv, worseBy(ov, nv, d.Better)*100)
		}
	}
	if regressions > 0 {
		return errors.New(fmt.Sprint(regressions, " regression(s)"))
	}
	return nil
}
