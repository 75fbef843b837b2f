package scinet

// Allocation cross-check for this package's //lint:hotpath annotation on
// nativeEvents. The static analyzer proves the function free of
// allocating constructs up to its two //lint:allow escapes (the batch
// validator's error formatting and the filtering copy, both taken only by
// a batch with an event to drop); this test proves a clean batch takes
// neither: ingest hands the received slice on without copying it.
// internal/analysis/hotpath's registry test fails if the annotation exists
// without this check.

import (
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/wire"
)

// ingestBatch builds a 64-event batch stamped with a foreign Range, as a
// fan-out batch arrives from a sibling, plus the receiving Range's id.
func ingestBatch() (b *wire.NativeBatch, local guid.GUID) {
	src := guid.New(guid.KindDevice)
	foreign := guid.New(guid.KindRange)
	at := time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)
	events := make([]event.Event, 64)
	for i := range events {
		events[i] = event.New(ctxtype.TemperatureCelsius, src, uint64(i+1), at,
			map[string]any{"value": float64(i)}).WithRange(foreign)
	}
	return &wire.NativeBatch{Events: events, Origin: guid.New(guid.KindSoftware)}, guid.New(guid.KindRange)
}

// TestHotpathIngestZeroCopy: nativeEvents on a batch that filters nothing
// returns the received slice itself and allocates nothing.
func TestHotpathIngestZeroCopy(t *testing.T) {
	b, local := ingestBatch()
	var got []event.Event
	allocs := testing.AllocsPerRun(500, func() {
		got, _ = nativeEvents(b, local)
	})
	if allocs != 0 {
		t.Fatalf("nativeEvents allocates %.1f times per 64-event batch, want 0", allocs)
	}
	if len(got) != len(b.Events) || &got[0] != &b.Events[0] {
		t.Fatal("nativeEvents copied a batch that filters nothing")
	}
}

// ingestSink keeps BenchmarkHotpathIngest's result live.
var ingestSink []event.Event

// BenchmarkHotpathIngest measures nativeEvents on a clean 64-event batch:
// one validation pass, no copy, 0 allocs/op.
func BenchmarkHotpathIngest(b *testing.B) {
	batch, local := ingestBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingestSink, _ = nativeEvents(batch, local)
	}
}
