package wire

// Allocation checks and benchmarks for the binary codec's per-event paths.
// Encode first: cross-checks for this package's //lint:hotpath annotations
// (Encoder.appendBinary, appendBatch, appendEvent). The static analyzer
// proves the absence of allocating constructs up to the //lint:allow
// escapes (the once-per-connection dictionary maps, the payload encoder's
// error and slow paths); these tests prove the escapes were justified —
// once the dictionaries and scratch buffers are warm, encoding a batch
// frame allocates nothing, both when consecutive events share their
// dictionary fields (the reference pass repeats the previous event's
// bytes) and when they alternate (every reference is looked up).
// internal/analysis/hotpath's registry test fails if an annotation exists
// without a covering check here. Decode cannot be allocation-free — it
// builds the events it returns — so it gets a budget instead: what a frame
// and each of its events may allocate.
//
// Two frame shapes are measured. hotMessage is a small mixed batch: four
// events, multi-key payloads, a full header. streamMessage is xr-stream's
// batch: 64 events of one type from one publisher in one Range, each with a
// one-key float payload, as a coalescer chunk crosses a SCINET link.
//
//	go test -run xxx -bench Hotpath ./internal/wire/

import (
	"io"
	"testing"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
)

// hotMessage is the frame both directions are measured on: an application
// kind shipped inline (as SCINET batches travel), four events with
// mixed-type payloads, one publisher, piggybacked credit and a batch header.
func hotMessage() Message {
	src := guid.New(guid.KindServer)
	dst := guid.New(guid.KindServer)
	pub := guid.New(guid.KindApplication)
	events := make([]event.Event, 4)
	for i := range events {
		events[i] = event.Event{
			ID:      guid.New(guid.KindEvent),
			Type:    "bench.wire.hot",
			Source:  pub,
			Range:   src,
			Seq:     uint64(i + 1),
			Time:    time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC),
			Quality: 0.75,
			Payload: map[string]any{"value": 21.5, "seq": i, "ok": i%2 == 0, "unit": nil},
		}
	}
	return Message{
		Src:  src,
		Dst:  dst,
		Kind: "bench.app.batch",
		Batch: &NativeBatch{
			Events: events,
			Credit: &BatchCredit{Events: 4, Dropped: 0, QueueFree: 128},
			Origin: src,
			ID:     guid.New(guid.KindEvent),
			Via:    []guid.GUID{src, dst},
		},
	}
}

// hotMessageAlternating is hotMessage with two publishers taking turns and
// a Subject set on every other event: no event repeats its predecessor's
// Source or Subject.
func hotMessageAlternating() Message {
	m := hotMessage()
	pubs := [2]guid.GUID{m.Batch.Events[0].Source, guid.New(guid.KindApplication)}
	subj := guid.New(guid.KindPerson)
	for i := range m.Batch.Events {
		ev := &m.Batch.Events[i]
		ev.Source = pubs[i%2]
		if i%2 == 1 {
			ev.Subject = subj
		}
	}
	return m
}

// warmEncoder returns a binary encoder whose interning dictionaries and
// scratch buffers have already seen msg, plus a frame buffer with room.
func warmEncoder(t testing.TB, msg Message) (*Encoder, []byte) {
	t.Helper()
	e := NewEncoder(io.Discard, CodecBinary)
	buf := make([]byte, 0, 4096)
	// First encode interns the batch's types and GUIDs and takes the
	// scratch buffers from the pool; everything after is steady state.
	out, err := e.appendBinary(buf, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty frame")
	}
	e.commitDict()
	return e, buf
}

// TestHotpathEncodeZeroAlloc requires a warmed binary batch encode —
// envelope, credit, dictionary refs, events with payloads — to allocate
// nothing, whether consecutive events share their fields or not.
func TestHotpathEncodeZeroAlloc(t *testing.T) {
	for _, in := range []struct {
		name string
		msg  Message
	}{
		{"one_publisher", hotMessage()},
		{"alternating_sources", hotMessageAlternating()},
		{"stream", streamMessage()},
	} {
		t.Run(in.name, func(t *testing.T) {
			e, buf := warmEncoder(t, in.msg)
			allocs := testing.AllocsPerRun(500, func() {
				out, err := e.appendBinary(buf[:0], in.msg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) == 0 {
					t.Fatal("empty frame")
				}
			})
			if allocs != 0 {
				t.Fatalf("warmed binary encode allocates %.1f times per frame, want 0", allocs)
			}
		})
	}
}

func BenchmarkHotpathAppendBinary(b *testing.B) {
	msg := hotMessage()
	e, buf := warmEncoder(b, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.appendBinary(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// streamEvents is the size of xr-stream's batches: the coalescer's chunk.
const streamEvents = 64

// streamMessage is an xr-stream batch on a SCINET link: streamEvents events
// sharing Type, Source and Range, one-key float payloads, the relay header.
func streamMessage() Message {
	src := guid.New(guid.KindServer)
	dst := guid.New(guid.KindServer)
	pub := guid.New(guid.KindDevice)
	rng := guid.New(guid.KindRange)
	at := time.Date(2003, 6, 17, 9, 0, 0, 0, time.UTC)
	events := make([]event.Event, streamEvents)
	for i := range events {
		events[i] = event.Event{
			ID:      guid.New(guid.KindEvent),
			Type:    "bench.xr.stream",
			Source:  pub,
			Range:   rng,
			Seq:     uint64(i + 1),
			Time:    at.Add(time.Duration(i) * time.Microsecond),
			Payload: map[string]any{"value": 21.5 + float64(i)},
		}
	}
	return Message{
		Src:  src,
		Dst:  dst,
		Kind: "scinet.event_batch",
		Batch: &NativeBatch{
			Events: events,
			Origin: src,
			ID:     guid.New(guid.KindEvent),
			Via:    []guid.GUID{src},
		},
	}
}

// BenchmarkHotpathAppendBinaryStream encodes xr-stream's batch; ns/op is
// per frame.
func BenchmarkHotpathAppendBinaryStream(b *testing.B) {
	msg := streamMessage()
	e, buf := warmEncoder(b, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.appendBinary(buf[:0], msg); err != nil {
			b.Fatal(err)
		}
	}
}

// warmDecoder returns a decoder that has already read msg's first frame —
// the one shipping the dictionary deltas and the payload keys — plus the
// steady-state frame a warmed encoder emits for msg from then on.
func warmDecoder(t testing.TB, msg Message) (*Decoder, []byte) {
	t.Helper()
	e := NewEncoder(io.Discard, CodecBinary)
	first, err := e.appendBinary(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	e.commitDict()
	steady, err := e.appendBinary(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(nil)
	if _, err := d.decodeBinaryFrame(first); err != nil {
		t.Fatal(err)
	}
	return d, steady
}

// TestHotpathDecodeAllocBudget caps what a warmed binary batch decode may
// allocate: per frame the batch (its credit in the same allocation), its
// event slice and its hop set; per event the payload map and one box per
// non-zero number — no kind or key strings, no boxes for booleans or null,
// no reflection, no intermediate copies. Measured: 18 per frame.
func TestHotpathDecodeAllocBudget(t *testing.T) {
	d, frame := warmDecoder(t, hotMessage())
	const events, perEvent, perFrame = 4, 4, 2
	allocs := testing.AllocsPerRun(500, func() {
		m, err := d.decodeBinaryFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Batch.Events) != events {
			t.Fatal("short batch")
		}
	})
	t.Logf("warmed binary decode: %.1f allocations per %d-event frame", allocs, events)
	if budget := float64(events*perEvent + perFrame); allocs > budget {
		t.Fatalf("warmed binary decode allocates %.1f times per %d-event frame, budget %.0f", allocs, events, budget)
	}
}

var sinkMessage Message

func BenchmarkHotpathDecodeBinary(b *testing.B) {
	d, frame := warmDecoder(b, hotMessage())
	benchDecode(b, d, frame)
}

// BenchmarkHotpathDecodeBinaryStream decodes xr-stream's batch; ns/op is
// per frame.
func BenchmarkHotpathDecodeBinaryStream(b *testing.B) {
	d, frame := warmDecoder(b, streamMessage())
	benchDecode(b, d, frame)
}

func benchDecode(b *testing.B, d *Decoder, frame []byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := d.decodeBinaryFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		sinkMessage = m
	}
}
