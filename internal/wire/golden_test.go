package wire

// Golden event-batch frames: byte-exact streams under testdata/golden. Each
// golden is the length-prefixed frames one Encoder wrote for a fixed message
// sequence, and it is checked both ways: a fresh Decoder reads it back to the
// expected messages (reflect.DeepEqual), and a fresh Encoder writing the same
// sequence reproduces its bytes exactly. A round-trip test passes for any
// self-consistent change of format; a golden fails for every byte that moves.
//
//	go test ./internal/wire -run TestGoldenFrames -update
//
// rewrites them from the current encoder.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoder")

const goldenDir = "testdata/golden"

// gid is a deterministic GUID: the kind in the top byte, n in the last two.
func gid(kind guid.Kind, n uint16) guid.GUID {
	var g guid.GUID
	g[0] = byte(kind)
	g[14], g[15] = byte(n>>8), byte(n)
	return g
}

// goldenTime is a fixed instant, built the way the decoder builds times.
func goldenTime(i int) time.Time {
	return time.Unix(0, 1055840400e9+int64(i)*1e6)
}

// goldenCase is one golden stream: msgs written in order on one connection.
type goldenCase struct {
	name string
	// prime, when set, fills both sides' dictionaries before the first
	// frame, as earlier traffic on the connection would have.
	prime func(*Encoder, *Decoder)
	msgs  []Message
	// want is what decoding yields where it differs from msgs (payloads
	// the encoder coerces).
	want []Message
}

var (
	gSrc    = gid(guid.KindServer, 1)
	gDst    = gid(guid.KindServer, 2)
	gPubA   = gid(guid.KindDevice, 3)
	gPubB   = gid(guid.KindDevice, 4)
	gPerson = gid(guid.KindPerson, 5)
	gPlace  = gid(guid.KindPlace, 6)
	gRangeA = gid(guid.KindRange, 7)
	gRangeB = gid(guid.KindRange, 8)
)

// goldenEvent is one event of a golden batch; n makes its id and time.
func goldenEvent(n int, typ ctxtype.Type, src, subj, rng guid.GUID, payload map[string]any) event.Event {
	return event.Event{
		ID:      gid(guid.KindEvent, uint16(1000+n)),
		Type:    typ,
		Source:  src,
		Subject: subj,
		Range:   rng,
		Seq:     uint64(n),
		Time:    goldenTime(n),
		Payload: payload,
	}
}

func goldenBatch(kind Kind, nb *NativeBatch) Message {
	return Message{Src: gSrc, Dst: gDst, Kind: kind, Batch: nb}
}

func goldenCases() []goldenCase {
	const temp, humid, door = ctxtype.Type("golden.temperature"), ctxtype.Type("golden.humidity"), ctxtype.Type("golden.door")
	val := func(f float64) map[string]any { return map[string]any{"value": f} }

	// A stream batch: one type, one publisher, one Range.
	stream := make([]event.Event, 4)
	for i := range stream {
		stream[i] = goldenEvent(i, temp, gPubA, guid.Nil, gRangeA, val(20+float64(i)/2))
	}
	streamMsg := goldenBatch(KindEventBatch, &NativeBatch{
		Events: stream,
		Credit: &BatchCredit{Events: 4, Dropped: 1, QueueFree: 60},
	})
	// A SCINET relay of the same events: inline kind, full header.
	relayMsg := goldenBatch("scinet.event_batch", &NativeBatch{
		Events: stream[:2],
		Origin: gSrc,
		ID:     gid(guid.KindEvent, 900),
		Query:  gid(guid.KindQuery, 901),
		Via:    []guid.GUID{gSrc, gDst},
	})

	// Runs and alternations of every field the reference pass remembers.
	type fields struct {
		typ            ctxtype.Type
		src, subj, rng guid.GUID
	}
	runs := []fields{
		{temp, gPubA, guid.Nil, gRangeA},
		{temp, gPubA, guid.Nil, gRangeA},
		{humid, gPubA, guid.Nil, gRangeA},
		{temp, gPubB, gPerson, gRangeA},
		{temp, gPubA, gPerson, gRangeA},
		{temp, gPubA, gPlace, guid.Nil},
		{humid, gPubB, guid.Nil, gRangeB},
		{humid, gPubB, guid.Nil, gRangeB},
		{door, guid.Nil, gPerson, gRangeB},
		{door, gPubA, gPerson, gRangeA},
		{temp, gPubA, guid.Nil, gRangeA},
	}
	runEvents := func(first int, order []int) []event.Event {
		evs := make([]event.Event, len(order))
		for i, k := range order {
			f := runs[k]
			evs[i] = goldenEvent(first+i, f.typ, f.src, f.subj, f.rng, val(float64(k)))
		}
		return evs
	}
	fwd := make([]int, len(runs))
	for i := range fwd {
		fwd[i] = i
	}
	rev := []int{10, 9, 8, 3, 4, 4, 4, 0, 6, 5, 1, 2}

	// A batch on full dictionaries: literal type and GUID references,
	// repeated and alternating, next to two-byte dictionary references.
	lateType := ctxtype.Type(fmt.Sprintf("golden.fill.t%d", maxDictEntries-1))
	lateGUID := gid(guid.KindArtifact, maxDictEntries-1)
	fullFields := []fields{
		{door, gPubA, guid.Nil, gRangeA},
		{door, gPubA, guid.Nil, gRangeA},
		{lateType, lateGUID, gPubA, gRangeA},
		{lateType, lateGUID, gPubA, gRangeA},
		{door, gPubB, gPubA, lateGUID},
		{lateType, gPubA, guid.Nil, gRangeA},
	}
	full := make([]event.Event, len(fullFields))
	for i, f := range fullFields {
		full[i] = goldenEvent(i, f.typ, f.src, f.subj, f.rng, nil)
	}

	// Payloads with one to three keys; an invalid UTF-8 key coerces.
	payloads := []map[string]any{
		{"value": 21.5},
		{"value": 22.0},
		{"a": "x", "b": true},
		{"a": "y", "b": false},
		{"a": "z", "c": nil},
		{"k1": nil, "k2": []any{1.0, "s"}, "k3": map[string]any{"n": 2.0}},
		{"k1": 3.0, "k2": []any{}, "k3": map[string]any{}},
		{"value": 23.0},
		{"\xff": 1.0},
		{"ok": 1.0, "\xffbad": "v"},
		{},
	}
	coerced := map[int]map[string]any{
		8:  {"\ufffd": 1.0},
		9:  {"ok": 1.0, "\ufffdbad": "v"},
		10: nil,
	}
	keyEvents := func(coerce bool) []event.Event {
		evs := make([]event.Event, len(payloads))
		for i, p := range payloads {
			if c, ok := coerced[i]; ok && coerce {
				p = c
			}
			evs[i] = goldenEvent(i, humid, gPubB, guid.Nil, gRangeB, p)
		}
		return evs
	}
	keysIn := goldenBatch(KindEventBatch, &NativeBatch{Events: keyEvents(false)})
	keysOut := goldenBatch(KindEventBatch, &NativeBatch{Events: keyEvents(true)})

	// The connection's opening exchange at protocol version 5: the dialer's
	// hello, and the accept side's answer on the same socket, each the first
	// frame its side writes (a Hello{Version: 5} body each way).
	helloBody := json.RawMessage(`{"version":5}`)
	hello := Message{Src: gSrc, Dst: gDst, Kind: KindHello, Body: helloBody}
	helloAnswer := Message{Src: gDst, Dst: gSrc, Kind: KindHello, Body: helloBody}

	return []goldenCase{
		{
			name: "dict_first_then_steady",
			msgs: []Message{streamMsg, streamMsg, relayMsg},
		},
		{
			name: "field_runs",
			msgs: []Message{
				goldenBatch(KindEventBatch, &NativeBatch{Events: runEvents(0, fwd)}),
				goldenBatch(KindEventBatch, &NativeBatch{Events: runEvents(len(fwd), rev)}),
			},
		},
		{
			name:  "dict_full",
			prime: fillDictionaries,
			msgs: []Message{
				goldenBatch(KindEventBatch, &NativeBatch{Events: full}),
				goldenBatch(KindEventBatch, &NativeBatch{Events: full}),
			},
		},
		{
			name: "payload_keys",
			msgs: []Message{keysIn, keysIn},
			want: []Message{keysOut, keysOut},
		},
		{name: "hello_dial", msgs: []Message{hello}},
		{name: "hello_answer", msgs: []Message{helloAnswer}},
	}
}

// fillDictionaries brings both sides' type and GUID dictionaries to
// maxDictEntries with entries the encoder and decoder agree on, ending with
// the golden.fill.t4095 type and the artifact GUID numbered 4095; the
// golden publishers, people and Ranges stay outside them.
func fillDictionaries(e *Encoder, d *Decoder) {
	e.types = make(map[string]uint32, maxDictEntries)
	e.guids = make(map[guid.GUID]uint32, maxDictEntries)
	for i := 0; i < maxDictEntries; i++ {
		t := fmt.Sprintf("golden.fill.t%d", i)
		g := gid(guid.KindArtifact, uint16(i))
		e.types[t] = uint32(i)
		e.guids[g] = uint32(i)
		d.types = append(d.types, t)
		d.guids = append(d.guids, g)
	}
}

// encodeGolden writes c's messages through one fresh encoder.
func encodeGolden(t *testing.T, c goldenCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, CodecBinary)
	if c.prime != nil {
		c.prime(enc, new(Decoder))
	}
	for i, m := range c.msgs {
		if err := enc.Write(m); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

func TestGoldenFrames(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(goldenDir, c.name+".bin")
			got := encodeGolden(t, c)
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}

			// Encode: the same sequence gives the golden's exact bytes.
			if !bytes.Equal(got, golden) {
				at := 0
				for at < len(got) && at < len(golden) && got[at] == golden[at] {
					at++
				}
				t.Errorf("encoding differs from %s at byte %d (encoded %d bytes, golden %d)", path, at, len(got), len(golden))
			}

			// Decode: the golden reads back to the expected messages.
			want := c.want
			if want == nil {
				want = c.msgs
			}
			dec := NewDecoder(bytes.NewReader(golden))
			if c.prime != nil {
				c.prime(new(Encoder), dec)
			}
			for i, w := range want {
				m, err := dec.Read()
				if err != nil {
					t.Fatalf("read frame %d: %v", i, err)
				}
				if !reflect.DeepEqual(m, w) {
					t.Errorf("frame %d decodes to\n %+v\nwant\n %+v", i, m, w)
					if m.Batch != nil && w.Batch != nil {
						for j := range min(len(m.Batch.Events), len(w.Batch.Events)) {
							if !reflect.DeepEqual(m.Batch.Events[j], w.Batch.Events[j]) {
								t.Errorf("  event %d: got %+v, want %+v", j, m.Batch.Events[j], w.Batch.Events[j])
							}
						}
					}
				}
			}
			if m, err := dec.Read(); err == nil {
				t.Fatalf("golden holds a frame beyond the expected ones: %+v", m)
			}
		})
	}
}

// goldenFrames returns every committed golden stream, for fuzz seeds.
func goldenFrames(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}
