package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsRunClean runs every workload for 300 ms, untraced and traced,
// with the oracle on: nothing may fail, and the traced stages must add up.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			in, err := w.setup(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			pass := runPass(in, nil, 50*time.Millisecond, 300*time.Millisecond)
			// Beside the other packages' tests, or under the race detector,
			// the pipeline may not carry the open loop's 60 000 deliveries/s:
			// a backlog is no failure here, but every event must still arrive.
			pass.Failed -= pass.Backlog
			if pass.Failed != 0 || pass.Attempted == 0 || pass.Ops == 0 {
				t.Fatalf("untraced: attempted %d, failed %d, ops %d: %v", pass.Attempted, pass.Failed, pass.Ops, pass.Notes)
			}
			if pass.LatencySamples == 0 || pass.LatencyP99Us < pass.LatencyP50Us || pass.CPUUsPerOp <= 0 {
				t.Fatalf("implausible measurements: %+v", pass)
			}

			layers, file, traced, err := runTraced(w, 1, 50*time.Millisecond, 300*time.Millisecond, pass.OpsPerS, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			traced.Failed -= traced.Backlog
			if traced.Failed != 0 {
				t.Fatalf("traced: %d of %d failed: %v", traced.Failed, traced.Attempted, traced.Notes)
			}
			if w.deliveriesPerEvent == 0 {
				return // query-mix has no event journey to trace
			}
			if traced.Stages.Samples == 0 {
				t.Fatal("traced pass stamped no delivery")
			}
			if gap := layers["bench.trace_gap_share"]; gap > 0.05 {
				t.Fatalf("stage means leave %.3f of the mean latency unattributed: %v", gap, traced.Stages.MeanUs)
			}
			if _, ok := layers["server.publish_us"]; !ok {
				t.Fatalf("no publish stage in %v", layers)
			}
			if _, err := os.Stat(file); err != nil {
				t.Fatalf("trace file: %v", err)
			}
		})
	}
}

// TestIsolatedPass runs the isolated-layer pass at 1/100 of its iteration
// counts and checks that it fills every catalogue entry the workloads do
// not.
func TestIsolatedPass(t *testing.T) {
	iso, err := runIsolated(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	fromWorkloads := map[string]bool{
		"bench.latency_p99_us": true, "bench.trace_gap_share": true, "bench.trace_overhead_share": true,
		"flow.events_per_flush": true, "eventbus.index_hit_ratio": true, "eventbus.dropped_share": true,
		"resolver.cache_hit_ratio": true, "bench.generator_late_us_p99": true,
		"transport.wire_bytes_per_event": true,
		"server.submit_profile_us":       true, "server.submit_advert_us": true,
		"server.submit_subscribe_us": true, "configuration.teardown_us": true,
	}
	for _, name := range stageNames {
		fromWorkloads[name] = true
	}
	for _, d := range perLayer {
		v, ok := iso[d.Name]
		switch {
		case fromWorkloads[d.Name]:
			if ok {
				t.Errorf("%s is a workload metric but the isolated pass reports it", d.Name)
			}
		case !ok:
			t.Errorf("isolated pass does not report %s", d.Name)
		case v <= 0 && !strings.Contains(d.Name, "syscalls") && !strings.Contains(d.Name, "allocs"):
			t.Errorf("%s = %v", d.Name, v)
		}
	}
	for name := range iso {
		if unitOf(perLayer, name) == "" {
			t.Errorf("isolated pass reports %s, which the catalogue does not list", name)
		}
	}
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json equal to what the
// catalogue prints and inside the limits the benchmark contract sets.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(data))
	}
	var onDisk manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -manifest`")
	}

	nameRx := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRx := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRx.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range want.EndToEnd {
		check(m.Name)
		if !unitRx.MatchString(m.Unit) || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		check(m.Name)
		if !unitRx.MatchString(m.Unit) || m.Bound != nil || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}

// TestReadmeListsEveryMetric keeps the README's catalogue from drifting.
func TestReadmeListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(readme, "`"+d.Name+"`") {
				t.Errorf("README.md does not list %s", d.Name)
			}
		}
	}
	for _, w := range workloadDefs {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not describe %s", w.Name)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000*1000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile %.2f = %.0f, want %.0f within 2 %%", q, got, want)
		}
	}
	if m := h.mean(); math.Abs(m-50000.5*1000) > 1 {
		t.Errorf("mean %.1f", m)
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge: n %d, median %.0f vs %.0f", merged.n, merged.quantile(0.5), h.quantile(0.5))
	}
}

// TestQuartileSpread pins the quartile placement to Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75 and
// 8.25.
func TestQuartileSpread(t *testing.T) {
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %.6f, want %.6f", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Fatalf("single value spread %.3f", got)
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64) string {
		rec := record{Workloads: map[string]*workloadRecord{"xr-stream": {
			EndToEnd: map[string]*metricSeries{"ops_per_s": {Unit: "1/s", Median: median(ops), Values: ops}},
		}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 99})
	if err := compareRecords(base, write("same.json", []float64{98, 100, 102})); err != nil {
		t.Errorf("records within the bound: %v", err)
	}
	if err := compareRecords(base, write("slow.json", []float64{60, 61, 59})); err == nil {
		t.Error("a 40 % drop in ops_per_s passed")
	}
	// A spread wider than the bound cannot carry a verdict either way.
	if err := compareRecords(base, write("noisy.json", []float64{60, 85, 110})); err != nil {
		t.Errorf("an unresolved metric was reported as a regression: %v", err)
	}
}
