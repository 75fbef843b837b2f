package hotpath_test

// The annotation↔benchmark registry. Every //lint:hotpath function in the
// repository must have an AllocsPerRun check (and benchmark) in its own
// package proving the steady-state path really allocates nothing — the
// static analyzer bounds what the code can do, the runtime check bounds
// what it does, and this test keeps the two in lockstep: annotating a
// function without adding a covering check fails here, as does deleting a
// function (or its annotation) while leaving a stale registry entry.

import (
	"testing"

	"sci/internal/analysis"
	"sci/internal/analysis/hotpath"
)

// allocChecks maps each annotated function's symbol key to the test that
// holds it to zero allocations. Keep entries sorted by key.
var allocChecks = map[string]string{
	"sci/internal/eventbus.Bus.dispatchRuns":        "internal/eventbus/hotpath_bench_test.go:TestHotpathPublishZeroAlloc",
	"sci/internal/eventbus.Bus.lookupKeys":          "internal/eventbus/hotpath_bench_test.go:TestHotpathLookupKeysZeroAlloc",
	"sci/internal/eventbus.Subscription.drain":      "internal/eventbus/hotpath_bench_test.go:TestHotpathDrainZeroAlloc",
	"sci/internal/eventbus.Subscription.enqueueRun": "internal/eventbus/hotpath_bench_test.go:TestHotpathPublishZeroAlloc",
	"sci/internal/flow.Coalescer.doFlush":           "internal/flow/hotpath_bench_test.go:TestHotpathDoFlushZeroAlloc",
	"sci/internal/guid.Table.Get":                   "internal/guid/table_test.go:TestHotpathTableGetZeroAlloc",
	"sci/internal/resolver.Resolver.lookup":         "internal/resolver/cache_test.go:TestHotpathResolveRootZeroAlloc",
	"sci/internal/scinet.nativeEvents":              "internal/scinet/hotpath_bench_test.go:TestHotpathIngestZeroCopy",
	"sci/internal/server.Range.memoised":            "internal/server/memo_test.go:TestHotpathProfileMemoZeroAlloc",
	"sci/internal/wire.Encoder.appendBatch":         "internal/wire/hotpath_bench_test.go:TestHotpathEncodeZeroAlloc",
	"sci/internal/wire.Encoder.appendBinary":        "internal/wire/hotpath_bench_test.go:TestHotpathEncodeZeroAlloc",
	"sci/internal/wire.Encoder.appendEvent":         "internal/wire/hotpath_bench_test.go:TestHotpathEncodeZeroAlloc",
}

func TestAnnotationsMatchAllocChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool; skipped in -short")
	}
	pkgs, err := analysis.Load("../../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	annotated := hotpath.Annotated(pkgs)
	seen := make(map[string]bool, len(annotated))
	for _, key := range annotated {
		seen[key] = true
		if _, ok := allocChecks[key]; !ok {
			t.Errorf("//lint:hotpath on %s has no AllocsPerRun check; add one in its package and register it here", key)
		}
	}
	for key, check := range allocChecks {
		if !seen[key] {
			t.Errorf("registry entry %s -> %s is stale: no //lint:hotpath function with that key", key, check)
		}
	}
}
