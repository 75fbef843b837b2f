package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// payloadSeeds are JSON documents: what events carry, plus the inputs on
// which a JSON decoder and a hand-built value most easily part ways
// (escapes, surrogates, invalid UTF-8, duplicate keys, number edges). The
// ones encoding/json rejects seed the byte-level decoder fuzz as garbage.
var payloadSeeds = []string{
	`{}`,
	`{"value":21.5,"seq":3}`,
	`{"b":true,"f":false,"n":null,"s":"room-1"}`,
	`{"i":-9223372036854775808,"u":18446744073709551615,"big":9007199254740993}`,
	`{"e":1e-7,"E":1.5e+21,"neg":-0,"z":0}`,
	`{"nested":{"a":[1,"two",{"three":[]}],"o":{}}}`,
	`{"num":  12.50 ,"raw": { "k" : [ 1 , 2 ] } }`,
	`{"esc":"q\" b\\ n\n r\r t\t nul\u0000 del\u007f"}`,
	"{\"utf8\":\"caf\u00e9 \u2603 \U0001F600 \ufffd\"}",
	// Escapes and surrogates.
	`{"sl":"\/","bf":"\b\f","u":"\u00e9\u00E9","pair":"\ud83d\ude00"}`,
	`{"lone":"\ud800","low":"\udc00","hi2":"\ud800\ud800","hiascii":"\ud800\u0041","hitext":"\ud800x"}`,
	`{"\u006bey":"escaped key","key":"last wins"}`,
	"{\"bad\":\"\xff\xfe ok \xc3\"}",
	"{\"\xff\":1}",
	// Numbers at the edges.
	`{"a":1e999}`, `{"a":-1e999}`, `{"a":1e-999}`, `{"a":0.1e1}`, `{"a":1E+2}`,
	`{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`, `{"a":+1}`, `{"a":0x10}`, `{"a":1_0}`,
	`{"a":Infinity}`, `{"a":NaN}`, `{"a":-01}`, `{"a":--1}`,
	// Structure.
	`{"a":1,"a":2}`, `{"a":{"x":1},"a":{"y":2}}`,
	`{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{"a" 1}`, `{a:1}`, `{'a':1}`, `{"a":[1,]}`, `{"a":[,]}`, `{"a":[1 2]}`,
	`{"a":1} x`, `{"a":1}{}`, `{"a":1}` + "\x00",
	" \t\r\n{ \"a\" : [ ] } \n", "\v{}", "\ufeff{}",
	`null`, ` null `, `nul`, `nulll`, `true`, `[1]`, `"s"`, `3`, ``, ` `,
	`{"a":tru}`, `{"a":True}`, `{"a":nil}`,
	// Strings.
	"{\"a\":\"raw\x01ctl\"}", "{\"a\":\"tab\there\"}", "{\"a\":\"nl\n\"}",
	`{"a":"\x41"}`, `{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"\ud800\u12"}`, `{"a":"\`, `{"a":"\"`, `{"a":"open`, `{"a`,
	`{"":""}`,
}

// tagged encodes a payload map the way an event's payload is written.
func tagged(t testing.TB, m map[string]any) []byte {
	t.Helper()
	b, err := new(Encoder).appendPayload(nil, m)
	if err != nil {
		t.Fatalf("encode %#v: %v", m, err)
	}
	return b
}

// untag decodes one payload that must fill data exactly.
func untag(d *Decoder, data []byte) (map[string]any, error) {
	c := cursor{b: data}
	m := d.decodePayload(&c)
	if c.err == nil && c.rem() != 0 {
		c.fail("%d trailing bytes", c.rem())
	}
	return m, c.err
}

// checkRoundTrip requires every document encoding/json accepts as a payload
// to come back from the tagged form deeply equal to what encoding/json made
// of it — the payload contract's reference.
func checkRoundTrip(t *testing.T, doc []byte) {
	t.Helper()
	var want map[string]any
	if json.Unmarshal(doc, &want) != nil || want == nil {
		return // not a payload
	}
	got, err := untag(new(Decoder), tagged(t, want))
	if err != nil {
		t.Fatalf("payload %q: decode of own encoding: %v", doc, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\n got %#v\nwant %#v", doc, got, want)
	}
}

func TestPayloadDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range payloadSeeds {
		checkRoundTrip(t, []byte(s))
	}
}

func FuzzPayloadRoundTrip(f *testing.F) {
	for _, s := range payloadSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkRoundTrip(t, doc)
	})
}

// FuzzPayloadDecode feeds the tagged decoder arbitrary bytes: it never
// panics, and whatever it accepts is canonical — it re-encodes to the very
// bytes it came from.
func FuzzPayloadDecode(f *testing.F) {
	for _, s := range payloadSeeds {
		var m map[string]any
		if json.Unmarshal([]byte(s), &m) == nil && m != nil {
			f.Add(tagged(f, m))
		} else {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := untag(new(Decoder), data)
		if err != nil {
			return
		}
		if again := tagged(t, m); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical payload % x (re-encodes as % x)", data, again)
		}
	})
}

type payloadStruct struct {
	Name string  `json:"name"`
	Temp float32 `json:"temp"`
	Skip int     `json:"-"`
}

// TestPayloadGoValues pins the encoder's conversions: every Go value an
// event may carry decodes on the binary codec to what an encoding/json round
// trip delivers for it.
func TestPayloadGoValues(t *testing.T) {
	values := map[string]any{
		"int64 above 2^53":  int64(1<<53 + 1),
		"int64 min":         int64(math.MinInt64),
		"uint64 max":        uint64(math.MaxUint64),
		"int":               42,
		"int8":              int8(-8),
		"uint16":            uint16(65535),
		"float32":           float32(0.1),
		"float32 tiny":      float32(1e-45),
		"json.Number":       json.Number("12.50"),
		"json.Number empty": json.Number(""),
		"json.RawMessage":   json.RawMessage(` { "k" : [1, "two", null] } `),
		"struct":            payloadStruct{Name: "p1", Temp: 21.5, Skip: 3},
		"pointer":           &payloadStruct{Name: "p2"},
		"typed map":         map[string]int{"b": 2, "a": 1},
		"typed slice":       []float64{1.5, -0.5},
		"nil map":           map[string]any(nil),
		"nil slice":         []any(nil),
		"invalid UTF-8":     "a\xffb\xc3",
		"duration":          2 * time.Second,
	}
	for name, v := range values {
		t.Run(name, func(t *testing.T) {
			checkCodecsAgree(t, map[string]any{"v": v})
		})
	}
	// Invalid keys coerce to the same key; encoding/json's order decides
	// which value survives.
	checkCodecsAgree(t, map[string]any{"k\xfe": 1, "k\xff": 2, "k": map[string]any{"\xc3": true}})
}

// checkCodecsAgree sends one event carrying payload through the binary
// codec and requires it to decode deeply equal to the payload contract's
// reference: what an encoding/json round trip makes of the event.
func checkCodecsAgree(t *testing.T, payload map[string]any) {
	t.Helper()
	ev := event.New(ctxtype.TemperatureCelsius, guid.New(guid.KindDevice), 1, time.Unix(1700000000, 0), payload)
	m, err := NewNativeEventBatch(guid.New(guid.KindServer), guid.New(guid.KindServer), []event.Event{ev}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, CodecBinary).Write(m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := NewDecoder(&buf).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := viaEncodingJSON(t, m.Batch.Events); !reflect.DeepEqual(got.Batch.Events, want) {
		t.Fatalf("binary codec and encoding/json disagree on %#v:\n binary: %#v\n   json: %#v",
			payload, got.Batch.Events[0].Payload, want[0].Payload)
	}
}

// viaEncodingJSON is the payload contract's reference: what a json.Marshal →
// json.Unmarshal round trip makes of events, each time taken as the instant
// the binary codec carries (no zone, no monotonic reading).
func viaEncodingJSON(t testing.TB, events []event.Event) []event.Event {
	t.Helper()
	raw, err := json.Marshal(events)
	if err != nil {
		t.Fatalf("encoding/json marshal: %v", err)
	}
	var out []event.Event
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("encoding/json unmarshal: %v", err)
	}
	for i := range out {
		if !out[i].Time.IsZero() {
			out[i].Time = time.Unix(0, out[i].Time.UnixNano())
		}
	}
	return out
}

// TestPayloadRejectsUnencodable: values JSON cannot carry fail the encode
// on the binary codec too.
func TestPayloadRejectsUnencodable(t *testing.T) {
	for name, v := range map[string]any{
		"NaN":              math.NaN(),
		"-Inf":             math.Inf(-1),
		"float32 Inf":      float32(math.Inf(1)),
		"json.Number bad":  json.Number("0x10"),
		"json.Number huge": json.Number("1e999"),
		"raw invalid":      json.RawMessage(`{"broken`),
		"channel":          make(chan int),
	} {
		if _, err := new(Encoder).appendPayload(nil, map[string]any{"v": v}); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestEmptyPayloadCodecsAgree: an empty non-nil payload is absent on the
// wire, as in Event's JSON form (omitempty), so it decodes as nil.
func TestEmptyPayloadCodecsAgree(t *testing.T) {
	checkCodecsAgree(t, map[string]any{})
}

// DeepEqual cannot tell -0 from 0, but the float bits can: -0 must come
// back as negative zero.
func TestPayloadDecodeNegativeZero(t *testing.T) {
	m, err := untag(new(Decoder), tagged(t, map[string]any{"a": math.Copysign(0, -1)}))
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := m["a"].(float64); !ok || f != 0 || !math.Signbit(f) {
		t.Fatalf("-0 decoded as %#v, want float64 negative zero", m["a"])
	}
}

// nested returns a payload whose nesting depth (the payload object being
// level 1) is levels.
func nested(levels int) map[string]any {
	var v any = []any{}
	for i := 2; i < levels; i++ {
		v = []any{v}
	}
	return map[string]any{"a": v}
}

// TestPayloadDepthLimit pins the nesting bound to encoding/json's: the
// deepest payload it accepts encodes and decodes, one level more is refused
// by the encoder, and a hand-made bomb past the bound fails the frame
// without unbounded recursion.
func TestPayloadDepthLimit(t *testing.T) {
	ok := nested(maxPayloadDepth)
	raw, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, raw)
	if _, err := new(Encoder).appendPayload(nil, nested(maxPayloadDepth+1)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("depth %d: want ErrBadMessage, got %v", maxPayloadDepth+1, err)
	}
	var tooDeep map[string]any
	if json.Unmarshal(append(append([]byte(`{"a":`), raw...), '}'), &tooDeep) == nil {
		t.Fatalf("encoding/json accepted depth %d", maxPayloadDepth+1)
	}

	_, err = NewDecoder(bytes.NewReader(payloadFrame(depthBomb(1 << 20)))).Read()
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("depth bomb: want ErrBadMessage, got %v", err)
	}
	if !strings.Contains(err.Error(), "max depth") {
		t.Fatalf("depth bomb failed for another reason: %v", err)
	}
}

// depthBomb is a payload {"a": [[[…]]]} of the given nesting depth.
func depthBomb(levels int) []byte {
	b := []byte{1, 1, 'a'}
	return append(b, bytes.Repeat([]byte{tagArray, 1}, levels-1)...)
}

// TestPayloadKeyInternBounded sends more distinct keys, and longer keys,
// than the intern table may hold: everything still decodes, and the table
// stops at its cap.
func TestPayloadKeyInternBounded(t *testing.T) {
	const distinct = 10000
	p := make(map[string]any, distinct+1)
	for i := 0; i < distinct; i++ {
		p[fmt.Sprintf("key-%d", i)] = float64(i)
	}
	long := strings.Repeat("k", maxInternedKeyLen+1)
	p[long] = true
	frame := payloadFrame(tagged(t, p))

	d := NewDecoder(bytes.NewReader(append(frame, frame...)))
	for i := 0; i < 2; i++ {
		msg, err := d.Read()
		if err != nil {
			t.Fatal(err)
		}
		got := msg.Batch.Events[0].Payload
		if len(got) != distinct+1 || got["key-9999"] != float64(9999) || got[long] != true {
			t.Fatalf("frame %d: payload lost keys: %d entries", i, len(got))
		}
		if len(d.keys) != maxDictEntries {
			t.Fatalf("frame %d: intern table holds %d keys, want cap %d", i, len(d.keys), maxDictEntries)
		}
		if _, ok := d.keys[long]; ok {
			t.Fatalf("key of %d bytes was interned; cap is %d", len(long), maxInternedKeyLen)
		}
	}
}

// TestPayloadDecodeRejectsMalformed: hostile payload bytes fail the frame
// with ErrBadMessage.
func TestPayloadDecodeRejectsMalformed(t *testing.T) {
	for _, bad := range malformedPayloads() {
		if _, err := NewDecoder(bytes.NewReader(payloadFrame(bad.payload))).Read(); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: want ErrBadMessage, got %v", bad.name, err)
		}
	}
}

type malformedPayload struct {
	name    string
	payload []byte
}

func malformedPayloads() []malformedPayload {
	nan := binary.BigEndian.AppendUint64([]byte{1, 1, 'a', tagFloat}, math.Float64bits(math.NaN()))
	inf := binary.BigEndian.AppendUint64([]byte{1, 1, 'a', tagFloat}, math.Float64bits(math.Inf(1)))
	return []malformedPayload{
		{"depth bomb", depthBomb(maxPayloadDepth + 1)},
		{"inflated object", binary.AppendUvarint(nil, 1<<40)},
		{"inflated array", binary.AppendUvarint([]byte{1, 1, 'a', tagArray}, 1<<40)},
		{"inflated string", binary.AppendUvarint([]byte{1, 1, 'a', tagString}, 1<<40)},
		{"NaN bits", nan},
		{"Inf bits", inf},
		{"invalid string", []byte{1, 1, 'a', tagString, 2, 0xff, 0xfe}},
		{"invalid key", []byte{1, 1, 0xff, tagNull}},
		{"unknown tag", []byte{1, 1, 'a', tagObject + 1}},
		{"duplicate key", []byte{2, 1, 'a', tagNull, 1, 'a', tagTrue}},
		{"keys out of order", []byte{2, 1, 'b', tagNull, 1, 'a', tagTrue}},
		{"truncated", []byte{1, 1, 'a', tagFloat, 0x40}},
	}
}

// payloadFrame hand-assembles a length-prefixed binary event.batch frame
// whose single event carries payload verbatim — bytes the encoder itself
// would refuse to emit.
func payloadFrame(payload []byte) []byte {
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindServer)
	id := guid.New(guid.KindEvent)
	const typ = "test.payload"
	b := []byte{magicByte, binaryVersion, kindIDs[KindEventBatch], flagBatch}
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = append(b, 0, 0, 0, 0, 1) // no credit, no header, no type or guid deltas, one event
	b = append(b, evfPayload)
	b = append(b, id[:]...)
	b = binary.AppendUvarint(b, 0) // literal type
	b = binary.AppendUvarint(b, uint64(len(typ)))
	b = append(b, typ...)
	b = append(b, 0, 0, 0, 1) // nil source, subject, range; seq 1
	b = append(b, payload...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
}
