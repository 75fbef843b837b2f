package wire

// Event payloads cross the wire as tagged binary values; both directions
// live here and mirror each other. The encoder writes what an encoding/json
// round trip of the same payload decodes to — numbers as float64, invalid
// UTF-8 as U+FFFD — which FuzzPayloadRoundTrip and the codec tests enforce
// with reflect.DeepEqual. Grammar (doc.go):
//
//	payload = object body: uvarint count, then count × (key, value),
//	          keys as uvarint len + UTF-8 bytes in strictly ascending order
//	value   = tag(u8) then: null/false/true nothing; float 8 bytes
//	          big-endian IEEE bits; string uvarint len + UTF-8 bytes;
//	          array uvarint count + values; object as payload

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Payload value tags. The order is wire ABI.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagFloat
	tagString
	tagArray
	tagObject
)

const (
	// maxPayloadDepth is the deepest object/array nesting a payload may
	// have, the payload object itself being level 1. It is encoding/json's
	// own limit, so encoding/json can decode whatever the wire carries; it
	// also bounds both directions' recursion.
	maxPayloadDepth = 10000
	// maxInternedKeyLen caps the length of a string the decoder interns.
	// With maxDictEntries it bounds the table's memory whatever a peer
	// sends; longer or later strings still decode, just not remembered.
	maxInternedKeyLen = 64
)

// ----- encoding -----

// appendPayload appends an event payload map. Steady state allocates
// nothing: per-depth entry slices are reused across calls.
func (e *Encoder) appendPayload(b []byte, m map[string]any) ([]byte, error) {
	return e.appendObject(b, m, 1)
}

// appendObject appends m's body (count and sorted entries) at nesting depth.
func (e *Encoder) appendObject(b []byte, m map[string]any, depth int) ([]byte, error) {
	if depth > maxPayloadDepth {
		return b, fmt.Errorf("%w: payload nesting exceeds max depth %d", ErrBadMessage, maxPayloadDepth)
	}
	for len(e.entryStack) < depth {
		e.entryStack = append(e.entryStack, nil)
	}
	entries := e.entryStack[depth-1][:0]
	for k, v := range m {
		if !utf8.ValidString(k) {
			// Coerced keys may collide, and encoding/json decides which
			// value survives: let it.
			jv, err := jsonValue(m)
			if err != nil {
				return b, err
			}
			return e.appendObject(b, jv.(map[string]any), depth)
		}
		entries = append(entries, payloadEntry{k, v})
	}
	slices.SortFunc(entries, func(x, y payloadEntry) int { return strings.Compare(x.key, y.key) })
	e.entryStack[depth-1] = entries
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, en := range entries {
		// Every key passed utf8.ValidString above: written as is.
		b = binary.AppendUvarint(b, uint64(len(en.key)))
		b = append(b, en.key...)
		var err error
		if b, err = e.appendValue(b, en.val, depth); err != nil {
			return b, err
		}
	}
	return b, nil
}

// payloadEntry is one object member, collected for sorting.
type payloadEntry struct {
	key string
	val any
}

// appendValue appends one tagged value held at nesting depth.
func (e *Encoder) appendValue(b []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNull), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case float64:
		return appendFloat(b, x)
	case string:
		return appendPayloadString(append(b, tagString), x), nil
	case map[string]any:
		if x == nil {
			return append(b, tagNull), nil
		}
		return e.appendObject(append(b, tagObject), x, depth+1)
	case []any:
		if x == nil {
			return append(b, tagNull), nil
		}
		if depth+1 > maxPayloadDepth {
			return b, fmt.Errorf("%w: payload nesting exceeds max depth %d", ErrBadMessage, maxPayloadDepth)
		}
		b = append(b, tagArray)
		b = binary.AppendUvarint(b, uint64(len(x)))
		for _, el := range x {
			var err error
			if b, err = e.appendValue(b, el, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case int:
		return appendFloat(b, float64(x))
	case int64:
		return appendFloat(b, float64(x))
	case int32:
		return appendFloat(b, float64(x))
	case uint:
		return appendFloat(b, float64(x))
	case uint64:
		return appendFloat(b, float64(x))
	case uint32:
		return appendFloat(b, float64(x))
	case float32:
		// encoding/json writes a float32 in its shortest 32-bit form; the
		// value that text parses back to is what a round trip delivers.
		f := float64(x)
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			var text [32]byte
			f, _ = strconv.ParseFloat(string(strconv.AppendFloat(text[:0], f, 'g', -1, 32)), 64)
		}
		return appendFloat(b, f)
	case json.Number:
		if x == "" {
			return appendFloat(b, 0) // encoding/json writes an empty Number as 0
		}
		if !json.Valid([]byte(x)) || (x[0] != '-' && (x[0] < '0' || x[0] > '9')) {
			return b, fmt.Errorf("%w: invalid json.Number %q", ErrBadMessage, string(x))
		}
		f, err := strconv.ParseFloat(string(x), 64)
		if err != nil {
			return b, fmt.Errorf("%w: json.Number %q: %v", ErrBadMessage, string(x), err)
		}
		return appendFloat(b, f)
	default:
		// json.RawMessage, other integer widths, structs, typed maps and
		// slices: one reflective slow path yields exactly what an
		// encoding/json round trip delivers.
		jv, err := jsonValue(v)
		if err != nil {
			return b, err
		}
		return e.appendValue(b, jv, depth)
	}
}

// jsonValue is what a JSON round trip makes of v: nil, bool, float64,
// string, []any or map[string]any.
func jsonValue(v any) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encode payload value: %w", err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("wire: encode payload value: %w", err)
	}
	return out, nil
}

func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("%w: unsupported float value in payload", ErrBadMessage)
	}
	b = append(b, tagFloat)
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f)), nil
}

// appendPayloadString appends s as uvarint length + bytes. Invalid UTF-8
// becomes U+FFFD per byte, the rule encoding/json applies, so the string
// decodes to what an encoding/json round trip delivers.
func appendPayloadString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		var sb strings.Builder
		for i := 0; i < len(s); {
			r, size := utf8.DecodeRuneInString(s[i:])
			sb.WriteRune(r) // an invalid byte decodes as (RuneError, 1)
			i += size
		}
		s = sb.String()
	}
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ----- decoding -----

// decodePayload reads an event payload at the cursor. Nothing in the result
// aliases the frame. Malformed input — a bad tag, NaN or infinite bits,
// invalid UTF-8, keys out of order, counts beyond the bytes left, nesting
// beyond maxPayloadDepth — fails the cursor.
func (d *Decoder) decodePayload(c *cursor) map[string]any {
	return d.decodeObject(c, 1)
}

func (d *Decoder) decodeObject(c *cursor, depth int) map[string]any {
	if depth > maxPayloadDepth {
		c.fail("payload nesting exceeds max depth %d", maxPayloadDepth)
		return nil
	}
	n := c.uvarint()
	// Every entry costs at least a key length and a value tag.
	if c.err == nil && n > uint64(c.rem()/2) {
		c.fail("payload object of %d entries exceeds frame", n)
	}
	if c.err != nil {
		return nil
	}
	m := make(map[string]any, min(n, 8))
	var prev string
	for i := uint64(0); i < n; i++ {
		kb := c.blob()
		if c.err != nil {
			return nil
		}
		var key string
		// A top-level key equal to the previous payload's at the same
		// position reuses the string decoded for it, which was validated.
		if depth == 1 && i < uint64(len(d.runKeys)) && d.runKeys[i] == string(kb) {
			key = d.runKeys[i]
		} else {
			if !utf8.Valid(kb) {
				c.fail("payload key is not UTF-8")
				return nil
			}
			key = d.internKey(kb)
			if depth == 1 && i < uint64(len(d.runKeys)) {
				d.runKeys[i] = key
			}
		}
		if i > 0 && key <= prev {
			c.fail("payload keys out of order")
			return nil
		}
		prev = key
		m[key] = d.decodeValue(c, depth)
	}
	return m
}

func (d *Decoder) decodeValue(c *cursor, depth int) any {
	switch tag := c.u8(); tag {
	case tagNull:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagFloat:
		f := math.Float64frombits(c.u64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			c.fail("payload float is NaN or infinite")
		}
		return f
	case tagString:
		s := c.blob()
		if c.err == nil && !utf8.Valid(s) {
			c.fail("payload string is not UTF-8")
		}
		return string(s)
	case tagArray:
		if depth+1 > maxPayloadDepth {
			c.fail("payload nesting exceeds max depth %d", maxPayloadDepth)
			return nil
		}
		n := c.uvarint()
		// Every element costs at least its tag.
		if c.err == nil && n > uint64(c.rem()) {
			c.fail("payload array of %d elements exceeds frame", n)
		}
		arr := make([]any, 0, min(n, 64))
		for i := uint64(0); i < n && c.err == nil; i++ {
			arr = append(arr, d.decodeValue(c, depth+1))
		}
		return arr
	case tagObject:
		return d.decodeObject(c, depth+1)
	default:
		c.fail("bad payload tag %d", tag)
		return nil
	}
}

// internKey returns b as a string, sharing one copy per distinct value
// across the frames of a connection while the table has room. Payload keys
// and inline kinds go through it.
func (d *Decoder) internKey(b []byte) string {
	if s, ok := d.keys[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternedKeyLen && len(d.keys) < maxDictEntries {
		if d.keys == nil {
			d.keys = make(map[string]string)
		}
		d.keys[s] = s
	}
	return s
}
