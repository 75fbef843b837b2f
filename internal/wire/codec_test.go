package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

func testEvents(t *testing.T, n int) []event.Event {
	t.Helper()
	src := guid.New(guid.KindDevice)
	rng := guid.New(guid.KindRange)
	events := make([]event.Event, n)
	for i := range events {
		events[i] = event.New(ctxtype.TemperatureCelsius, src, uint64(i),
			time.Unix(1700000000, int64(i)*1e6), map[string]any{"value": float64(i) + 0.5})
		events[i].Range = rng
	}
	return events
}

// eventsEquivalent compares events modulo time representation (zone and
// monotonic clock are not wire properties).
func eventsEquivalent(t *testing.T, want, got []event.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("event count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Time.Equal(g.Time) {
			t.Fatalf("event %d time: want %v, got %v", i, w.Time, g.Time)
		}
		w.Time, g.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("event %d: want %+v, got %+v", i, w, g)
		}
	}
}

func TestBinaryRoundTripEnvelope(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, CodecBinary)
	dec := NewDecoder(&buf)

	msgs := []Message{
		{Src: guid.New(guid.KindServer), Dst: guid.New(guid.KindServer), Kind: KindHeartbeat},
		{Src: guid.New(guid.KindServer), Dst: guid.New(guid.KindServer), Kind: KindQuery,
			Corr: guid.New(guid.KindQuery), TTL: 7, Body: json.RawMessage(`{"q":"x"}`)},
		{Src: guid.New(guid.KindServer), Dst: guid.New(guid.KindServer), Kind: Kind("custom.kind"),
			Body: json.RawMessage(`[1,2,3]`)},
	}
	for _, m := range msgs {
		if err := enc.Write(m); err != nil {
			t.Fatalf("write %s: %v", m.Kind, err)
		}
	}
	for _, want := range msgs {
		got, err := dec.Read()
		if err != nil {
			t.Fatalf("read %s: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip: want %+v, got %+v", want, got)
		}
	}
	if _, err := dec.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBinaryRoundTripBatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, CodecBinary)
	dec := NewDecoder(&buf)

	events := testEvents(t, 16)
	events[3].Subject = guid.New(guid.KindPerson)
	events[5].Quality = 0.75
	events[7].Time = time.Time{}
	events[9].Payload = nil
	events[11].Payload = map[string]any{
		"s": "text\nwith \"escapes\"", "b": true, "n": nil,
		"nested": map[string]any{"k": []any{1.0, "two", false}},
	}
	credit := &BatchCredit{Events: 16, Dropped: 42, QueueFree: -1}
	m, err := NewNativeEventBatch(guid.New(guid.KindServer), guid.New(guid.KindServer), events, credit)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(m); err != nil {
		t.Fatalf("write: %v", err)
	}
	firstLen := buf.Len()

	got, err := dec.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Kind != KindEventBatch || got.Batch == nil {
		t.Fatalf("expected native batch, got %+v", got)
	}
	if !reflect.DeepEqual(credit, got.Batch.Credit) {
		t.Fatalf("credit: want %+v, got %+v", credit, got.Batch.Credit)
	}
	eventsEquivalent(t, events, got.Batch.Events)
	if c, ok := got.BatchCreditInfo(); !ok || c.Dropped != 42 {
		t.Fatalf("BatchCreditInfo on native batch: %+v ok=%v", c, ok)
	}

	// A second batch over the same connection rides the dictionary: no new
	// type/GUID deltas, so the frame is much smaller.
	if err := enc.Write(m); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	secondLen := buf.Len()
	if secondLen >= firstLen {
		t.Fatalf("dictionary-interned frame not smaller: first %dB, second %dB", firstLen, secondLen)
	}
	got2, err := dec.Read()
	if err != nil {
		t.Fatalf("read 2: %v", err)
	}
	eventsEquivalent(t, events, got2.Batch.Events)
}

func TestBinaryDeterministicReencode(t *testing.T) {
	events := testEvents(t, 8)
	events[2].Payload = map[string]any{"z": 1.0, "a": "x", "m": map[string]any{"q": 2.0, "p": 3.0}}
	m, err := NewNativeEventBatch(guid.New(guid.KindServer), guid.New(guid.KindServer), events, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf1 bytes.Buffer
	if err := NewEncoder(&buf1, CodecBinary).Write(m); err != nil {
		t.Fatal(err)
	}
	decoded, err := NewDecoder(bytes.NewReader(buf1.Bytes())).Read()
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := NewEncoder(&buf2, CodecBinary).Write(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("encode(decode(frame)) not byte-identical: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
}

func TestWriterRejectsInvalidBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewEncoder(&buf, CodecBinary)
	m := Message{Src: guid.New(guid.KindServer), Dst: guid.New(guid.KindServer),
		Kind: KindQuery, Body: json.RawMessage(`{"broken`)}
	if err := w.Write(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage for invalid body, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected write must emit nothing, wrote %d bytes", buf.Len())
	}
}

func TestDecoderCorruptInputTypedErrors(t *testing.T) {
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	events := testEvents(t, 4)
	m, err := NewNativeEventBatch(src, dst, events, &BatchCredit{Dropped: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, CodecBinary).Write(m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	// Truncations at every boundary must yield a typed error, never a panic.
	for cut := 0; cut < len(frame); cut++ {
		d := NewDecoder(bytes.NewReader(frame[:cut]))
		_, err := d.Read()
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		if !isTypedWireError(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// Flipping each payload byte must never panic, and any error is typed.
	for i := 4; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0xFF
		d := NewDecoder(bytes.NewReader(mut))
		if _, err := d.Read(); err != nil && !isTypedWireError(err) {
			t.Fatalf("corruption at %d: untyped error %v", i, err)
		}
	}
}

func isTypedWireError(err error) bool {
	return errors.Is(err, ErrBadMessage) || errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, event.ErrBadEvent)
}

func TestEncoderDictRollbackOnFailedEncode(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, CodecBinary)
	dec := NewDecoder(&buf)

	bad := testEvents(t, 2)
	bad[1].Payload = map[string]any{"inf": math.Inf(1)} // unencodable
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	mBad, _ := NewNativeEventBatch(src, dst, bad, nil)
	if err := enc.Write(mBad); err == nil {
		t.Fatal("expected encode failure for Inf payload")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed encode must ship nothing, wrote %d bytes", buf.Len())
	}

	// The dictionary must have rolled back: the next good frame re-ships its
	// deltas and the decoder — which never saw the failed frame — stays in
	// sync.
	good := testEvents(t, 4)
	mGood, _ := NewNativeEventBatch(src, dst, good, nil)
	if err := enc.Write(mGood); err != nil {
		t.Fatalf("write after rollback: %v", err)
	}
	got, err := dec.Read()
	if err != nil {
		t.Fatalf("read after rollback: %v", err)
	}
	eventsEquivalent(t, good, got.Batch.Events)
}

func FuzzDecoderRobustness(f *testing.F) {
	// Seed with a valid frame, near-miss corruptions and frames that do not
	// open with the magic byte: a lone '{' and a protocol-3 JSON hello.
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	ev := event.New(ctxtype.TemperatureCelsius, guid.New(guid.KindDevice), 1,
		time.Unix(1700000000, 0), map[string]any{"value": 1.5})
	m, _ := NewNativeEventBatch(src, dst, []event.Event{ev}, &BatchCredit{Dropped: 3, QueueFree: -1})
	var bin bytes.Buffer
	_ = NewEncoder(&bin, CodecBinary).Write(m)
	f.Add(bin.Bytes())
	v3Hello := []byte(`{"src":"` + src.String() + `","dst":"` + dst.String() +
		`","kind":"codec.hello","body":{"version":3,"codecs":["binary","json"]}}`)
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(v3Hello))), v3Hello...))
	f.Add([]byte{0, 0, 0, 2, magicByte, binaryVersion})
	f.Add([]byte{0, 0, 0, 1, '{'})
	f.Add([]byte{})
	// Hostile payloads and an inflated hop set.
	for _, bad := range malformedPayloads() {
		f.Add(payloadFrame(bad.payload))
	}
	via := []byte{magicByte, binaryVersion, kindIDs[KindEventBatch], flagBatch}
	via = append(via, src[:]...)
	via = append(via, dst[:]...)
	via = append(via, 0, hdrVia, 0, 0)
	via = binary.AppendUvarint(via, 1<<40)
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(via))), via...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: a frame per loop or an error out
			msg, err := d.Read()
			if err != nil {
				if !isTypedWireError(err) {
					t.Fatalf("untyped decoder error: %v", err)
				}
				return
			}
			if i == 0 && data[4] != magicByte {
				t.Fatalf("frame opening with %#x decoded: %+v", data[4], msg)
			}
			// Whatever decoded must re-encode without panic.
			_ = NewEncoder(io.Discard, CodecBinary).Write(msg)
		}
	})
}

// FuzzBinaryRoundTrip round-trips generated messages — with and without a
// batch, with and without credit and header, with nil, empty, flat and
// nested payloads — through the binary encoding: the frame must re-encode
// byte-identically, and the events must decode to what an encoding/json
// round trip makes of them (the payload contract).
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("temperature.celsius", "room-1", uint64(7), 0.5, int64(1700000000), 3) // batch + credit
	f.Add("presence", "", uint64(4), 0.0, int64(-5), 1)                          // batch, no credit
	f.Add("", "body only", uint64(1), 1.0, int64(0), 0)                          // no batch
	f.Fuzz(func(t *testing.T, typ, payloadStr string, seq uint64, quality float64, unixSec int64, n int) {
		if n < 0 || n > 64 {
			return
		}
		if math.IsNaN(quality) || math.IsInf(quality, 0) {
			return
		}
		// Types ship verbatim but encoding/json coerces them to valid UTF-8.
		// Payload strings are coerced on the wire too, so an invalid one
		// still holds the codec to the reference, just not to the original.
		if !utf8.ValidString(typ) {
			return
		}
		validPayload := utf8.ValidString(payloadStr)
		const maxSec = int64(1 << 33) // keep UnixNano in range
		if unixSec > maxSec || unixSec < -maxSec {
			return
		}
		src := guid.New(guid.KindDevice)
		events := make([]event.Event, n)
		for i := range events {
			var payload map[string]any
			switch (seq + uint64(i)) % 4 {
			case 1:
				payload = map[string]any{} // empty is absent, as in JSON
			case 2:
				payload = map[string]any{"s": payloadStr, "i": float64(i)}
			case 3:
				payload = map[string]any{payloadStr: []any{float64(i), nil, true,
					map[string]any{"q": quality, "list": []any{}, "obj": map[string]any{}}}}
			}
			events[i] = event.Event{
				ID: guid.New(guid.KindEvent), Type: ctxtype.Type(typ), Source: src,
				Seq: seq + uint64(i), Time: time.Unix(unixSec, int64(i)),
				Quality: quality, Payload: payload,
			}
		}
		// n == 0 exercises the batch-free envelope: a body-only message.
		m := Message{Src: src, Dst: guid.New(guid.KindServer), Kind: KindQueryResult,
			Corr: guid.New(guid.KindQuery), TTL: int(seq % 8)}
		if body, err := json.Marshal(map[string]string{"s": payloadStr}); err == nil {
			m.Body = body
		}
		if n > 0 {
			m.Kind = KindEventBatch
			m.Batch = &NativeBatch{Events: events}
			if seq%2 == 1 { // odd seeds piggyback a credit report
				m.Batch.Credit = &BatchCredit{Events: n, Dropped: seq / 2, QueueFree: int(seq%7) - 1}
			}
			if unixSec%2 != 0 { // odd times carry a SCINET batch header
				m.Kind = "scinet.event_batch"
				m.Batch.Origin = m.Src
				m.Batch.ID = guid.New(guid.KindEvent)
				m.Batch.Via = []guid.GUID{m.Src, m.Dst, guid.New(guid.KindServer)}[:1+n%3]
				if seq%3 == 0 {
					m.Batch.Query = guid.New(guid.KindQuery)
				}
			}
		}
		var buf1 bytes.Buffer
		if err := NewEncoder(&buf1, CodecBinary).Write(m); err != nil {
			t.Skip() // unencodable inputs (e.g. huge frames) are not round-trip subjects
		}
		got, err := NewDecoder(bytes.NewReader(buf1.Bytes())).Read()
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n > 0 && validPayload {
			want := append([]event.Event(nil), events...)
			for i := range want {
				if len(want[i].Payload) == 0 {
					want[i].Payload = nil
				}
			}
			eventsEquivalent(t, want, got.Batch.Events)
		}
		var buf2 bytes.Buffer
		if err := NewEncoder(&buf2, CodecBinary).Write(got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatal("round trip not byte-identical")
		}
		if n > 0 {
			if want := viaEncodingJSON(t, events); !reflect.DeepEqual(got.Batch.Events, want) {
				t.Fatalf("binary codec and encoding/json disagree:\n binary: %+v\n   json: %+v", got.Batch.Events, want)
			}
		}
	})
}
