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

	"sci/internal/guid"
)

// payloadSeeds covers every value shape appendJSONValue can emit plus the
// inputs on which a hand-written parser most easily parts ways with
// encoding/json.
var payloadSeeds = []string{
	// What the encoder emits.
	`{}`,
	`{"value":21.5,"seq":3}`,
	`{"b":true,"f":false,"n":null,"s":"room-1"}`,
	`{"i":-9223372036854775808,"u":18446744073709551615,"big":9007199254740993}`,
	`{"e":1e-7,"E":1.5e+21,"neg":-0,"z":0}`,
	`{"nested":{"a":[1,"two",{"three":[]}],"o":{}}}`,
	`{"num":  12.50 ,"raw": { "k" : [ 1 , 2 ] } }`, // json.Number / json.RawMessage keep inner whitespace
	`{"esc":"q\" b\\ n\n r\r t\t nul\u0000 del\u007f"}`,
	"{\"utf8\":\"caf\u00e9 \u2603 \U0001F600 \ufffd\"}",
	// Escapes and surrogates.
	`{"sl":"\/","bf":"\b\f","u":"\u00e9\u00E9","pair":"\ud83d\ude00"}`,
	`{"lone":"\ud800","low":"\udc00","hi2":"\ud800\ud800","hiascii":"\ud800\u0041","hitext":"\ud800x"}`,
	`{"\u006bey":"escaped key","key":"last wins"}`,
	"{\"bad\":\"\xff\xfe ok \xc3\"}", // invalid UTF-8 → U+FFFD
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

// jsonPayload is the reference: what the decoder did before it had its own
// parser.
func jsonPayload(data []byte) (map[string]any, error) {
	var m map[string]any
	err := json.Unmarshal(data, &m)
	return m, err
}

// checkAgainstJSON requires decodePayload and encoding/json to agree on data:
// both reject it, or both accept it with deeply equal results.
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := jsonPayload(data)
	got, gotErr := new(Decoder).decodePayload(data)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("payload %q: decodePayload err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		if got != nil {
			t.Fatalf("payload %q: rejected but returned %v", data, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\n got %#v\nwant %#v", data, got, want)
	}
}

func TestPayloadDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range payloadSeeds {
		checkAgainstJSON(t, []byte(s))
	}
	// Every prefix of a document rich in token kinds: truncation anywhere is
	// rejected by both, never mis-accepted.
	doc := `{"k\u00e9":[1.5e-3,"s\n\ud83d\ude00",true,false,null,{"x":{}}],"z":-0}`
	for i := 0; i <= len(doc); i++ {
		checkAgainstJSON(t, []byte(doc[:i]))
	}
}

// DeepEqual cannot tell -0 from 0, but re-encoding can: "-0" must come back
// as the negative zero that encodes to "-0" again.
func TestPayloadDecodeNegativeZero(t *testing.T) {
	m, err := new(Decoder).decodePayload([]byte(`{"a":-0}`))
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := m["a"].(float64); !ok || f != 0 || !math.Signbit(f) {
		t.Fatalf("-0 decoded as %#v, want float64 negative zero", m["a"])
	}
}

func FuzzPayloadDecode(f *testing.F) {
	for _, s := range payloadSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

// TestPayloadDepthLimit pins the nesting bound to encoding/json's: the
// deepest document it accepts is accepted, one level more is rejected by
// both, and a megabyte of '[' fails without unbounded recursion.
func TestPayloadDepthLimit(t *testing.T) {
	nest := func(levels int) []byte {
		// The payload object is level 1.
		return []byte(`{"a":` + strings.Repeat("[", levels-1) + strings.Repeat("]", levels-1) + `}`)
	}
	checkAgainstJSON(t, nest(maxPayloadDepth))
	if _, err := new(Decoder).decodePayload(nest(maxPayloadDepth)); err != nil {
		t.Fatalf("depth %d rejected: %v", maxPayloadDepth, err)
	}
	checkAgainstJSON(t, nest(maxPayloadDepth+1))
	if _, err := new(Decoder).decodePayload(nest(maxPayloadDepth + 1)); err == nil {
		t.Fatalf("depth %d accepted", maxPayloadDepth+1)
	}

	bomb := append([]byte(`{"a":`), bytes.Repeat([]byte("["), 1<<20)...)
	_, err := NewDecoder(bytes.NewReader(payloadFrame(bomb))).Read()
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("depth bomb: want ErrBadMessage, got %v", err)
	}
	if !strings.Contains(err.Error(), "max depth") {
		t.Fatalf("depth bomb failed for another reason: %v", err)
	}
}

// TestPayloadKeyInternBounded sends more distinct keys, and longer keys,
// than the intern table may hold: everything still decodes, and the table
// stops at its cap.
func TestPayloadKeyInternBounded(t *testing.T) {
	const distinct = 10000
	var doc bytes.Buffer
	doc.WriteByte('{')
	for i := 0; i < distinct; i++ {
		fmt.Fprintf(&doc, `"key-%d":%d,`, i, i)
	}
	long := strings.Repeat("k", maxInternedKeyLen+1)
	fmt.Fprintf(&doc, `"%s":true}`, long)

	d := NewDecoder(bytes.NewReader(append(payloadFrame(doc.Bytes()), payloadFrame(doc.Bytes())...)))
	for frame := 0; frame < 2; frame++ {
		msg, err := d.Read()
		if err != nil {
			t.Fatal(err)
		}
		p := msg.Batch.Events[0].Payload
		if len(p) != distinct+1 || p["key-9999"] != float64(9999) || p[long] != true {
			t.Fatalf("frame %d: payload lost keys: %d entries", frame, len(p))
		}
		if len(d.keys) != maxDictEntries {
			t.Fatalf("frame %d: intern table holds %d keys, want cap %d", frame, len(d.keys), maxDictEntries)
		}
		if _, ok := d.keys[long]; ok {
			t.Fatalf("key of %d bytes was interned; cap is %d", len(long), maxInternedKeyLen)
		}
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
	b = append(b, 0, 0, 0, 1) // no credit, no type deltas, no guid deltas, one event
	b = append(b, evfPayload)
	b = append(b, id[:]...)
	b = binary.AppendUvarint(b, 0) // literal type
	b = binary.AppendUvarint(b, uint64(len(typ)))
	b = append(b, typ...)
	b = append(b, 0, 0, 0, 1) // nil source, subject, range; seq 1
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
}
