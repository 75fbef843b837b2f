package wire

// Event payloads cross the binary codec as JSON object text. Both directions
// live here and mirror each other: the encoder appends that text without
// reflection, the decoder parses it back in one pass. Either side must stay
// interchangeable with encoding/json — same bytes out, same values and same
// rejections in — which FuzzPayloadDecode and the codec tests enforce.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// ----- encoding -----

const hexdigits = "0123456789abcdef"

// appendJSONMap appends the JSON encoding of a payload map with sorted keys
// (deterministic output, like encoding/json) without allocating in steady
// state: the per-depth key slices are reused across calls.
func (e *Encoder) appendJSONMap(b []byte, m map[string]any, depth int) ([]byte, error) {
	for len(e.keyStack) <= depth {
		e.keyStack = append(e.keyStack, nil)
	}
	keys := e.keyStack[depth][:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.keyStack[depth] = keys
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		var err error
		if b, err = e.appendJSONValue(b, m[k], depth+1); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func (e *Encoder) appendJSONValue(b []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		if x {
			return append(b, "true"...), nil
		}
		return append(b, "false"...), nil
	case string:
		return appendJSONString(b, x), nil
	case float64:
		return appendJSONFloat(b, x)
	case float32:
		return appendJSONFloat(b, float64(x))
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case uint64:
		return strconv.AppendUint(b, x, 10), nil
	case json.Number:
		if !json.Valid([]byte(x)) {
			return b, fmt.Errorf("%w: invalid json.Number %q", ErrBadMessage, string(x))
		}
		return append(b, x...), nil
	case json.RawMessage:
		if !json.Valid(x) {
			return b, fmt.Errorf("%w: invalid raw payload value", ErrBadMessage)
		}
		return append(b, x...), nil
	case map[string]any:
		return e.appendJSONMap(b, x, depth)
	case []any:
		b = append(b, '[')
		for i, el := range x {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = e.appendJSONValue(b, el, depth); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	default:
		// Uncommon payload value types take the reflective slow path.
		raw, err := json.Marshal(v)
		if err != nil {
			return b, fmt.Errorf("wire: encode payload value: %w", err)
		}
		return append(b, raw...), nil
	}
}

func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("%w: unsupported float value in payload", ErrBadMessage)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64), nil
}

func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c == '"' || c == '\\' || c < 0x20 {
				b = append(b, s[start:i]...)
				switch c {
				case '"':
					b = append(b, '\\', '"')
				case '\\':
					b = append(b, '\\', '\\')
				case '\n':
					b = append(b, '\\', 'n')
				case '\r':
					b = append(b, '\\', 'r')
				case '\t':
					b = append(b, '\\', 't')
				default:
					b = append(b, '\\', 'u', '0', '0', hexdigits[c>>4], hexdigits[c&0x0f])
				}
				start = i + 1
			}
			i++
			continue
		}
		// Invalid UTF-8 becomes U+FFFD, matching encoding/json, so encoded
		// payloads always decode to the same string they re-encode from.
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "�"...)
			start = i + 1
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ----- decoding -----

const (
	// maxPayloadDepth is the deepest object/array nesting a payload may have.
	// It is encoding/json's own limit, so the two reject the same inputs; it
	// also bounds the parser's recursion on hostile input.
	maxPayloadDepth = 10000
	// maxInternedKeyLen caps the length of an object key the decoder interns.
	// With maxDictEntries it bounds the table's memory whatever a peer sends;
	// keys beyond either bound are still decoded, just not remembered.
	maxInternedKeyLen = 64
)

// payloadParser is a single-pass recursive-descent JSON parser over one
// event's payload bytes. It accepts exactly the documents encoding/json
// decodes into a map[string]any and builds the same values: objects as
// map[string]any (duplicate keys: last wins), arrays as []any, numbers as
// float64, invalid UTF-8 and lone surrogates as U+FFFD.
type payloadParser struct {
	d     *Decoder
	b     []byte
	off   int
	depth int
}

// decodePayload parses raw as an event payload: a JSON object, or null for
// a nil map. Nothing in the result aliases raw.
func (d *Decoder) decodePayload(raw []byte) (map[string]any, error) {
	p := payloadParser{d: d, b: raw}
	p.skipSpace()
	var m map[string]any
	var err error
	switch p.peek() {
	case '{':
		m, err = p.object()
	case 'n':
		err = p.literal("null")
	default:
		err = p.errAt("payload is not a JSON object")
	}
	if err != nil {
		return nil, err
	}
	if p.skipSpace(); p.off != len(p.b) {
		return nil, p.errAt("trailing data after payload")
	}
	return m, nil
}

// internKey returns b as a string, sharing one copy per distinct key across
// the events of a connection while the table has room.
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

func (p *payloadParser) errAt(msg string) error {
	return fmt.Errorf("%s at payload offset %d", msg, p.off)
}

// peek returns the next byte, or 0 — which no token begins with — at the end.
func (p *payloadParser) peek() byte {
	if p.off < len(p.b) {
		return p.b[p.off]
	}
	return 0
}

func (p *payloadParser) skipSpace() {
	for p.off < len(p.b) {
		switch p.b[p.off] {
		case ' ', '\t', '\r', '\n':
			p.off++
		default:
			return
		}
	}
}

// enter steps over the bracket opening an object or array; leave steps over
// the one closing it.
func (p *payloadParser) enter() error {
	if p.depth++; p.depth > maxPayloadDepth {
		return p.errAt("payload nesting exceeds max depth")
	}
	p.off++
	p.skipSpace()
	return nil
}

func (p *payloadParser) leave() {
	p.off++
	p.depth--
}

func (p *payloadParser) object() (map[string]any, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	m := make(map[string]any)
	if p.peek() == '}' {
		p.leave()
		return m, nil
	}
	for {
		if p.peek() != '"' {
			return nil, p.errAt("expected object key")
		}
		kb, err := p.stringBytes()
		if err != nil {
			return nil, err
		}
		key := p.d.internKey(kb)
		if p.skipSpace(); p.peek() != ':' {
			return nil, p.errAt("expected ':' after object key")
		}
		p.off++
		p.skipSpace()
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		m[key] = v
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.off++
			p.skipSpace()
		case '}':
			p.leave()
			return m, nil
		default:
			return nil, p.errAt("expected ',' or '}' in object")
		}
	}
}

func (p *payloadParser) array() ([]any, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	arr := []any{}
	if p.peek() == ']' {
		p.leave()
		return arr, nil
	}
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		arr = append(arr, v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.off++
			p.skipSpace()
		case ']':
			p.leave()
			return arr, nil
		default:
			return nil, p.errAt("expected ',' or ']' in array")
		}
	}
}

func (p *payloadParser) value() (any, error) {
	switch c := p.peek(); {
	case c == '"':
		b, err := p.stringBytes()
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case c == '{':
		return p.object()
	case c == '[':
		return p.array()
	case c == '-' || isDigit(c):
		return p.number()
	case c == 't':
		return true, p.literal("true")
	case c == 'f':
		return false, p.literal("false")
	case c == 'n':
		return nil, p.literal("null")
	default:
		return nil, p.errAt("expected a JSON value")
	}
}

func (p *payloadParser) literal(word string) error {
	if len(p.b)-p.off < len(word) || string(p.b[p.off:p.off+len(word)]) != word {
		return p.errAt("invalid literal")
	}
	p.off += len(word)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (p *payloadParser) digits() bool {
	start := p.off
	for isDigit(p.peek()) {
		p.off++
	}
	return p.off > start
}

// number checks the JSON number grammar — stricter than strconv's — and then
// lets strconv.ParseFloat produce the value, as encoding/json does; a
// literal float64 cannot hold (1e999) is an error there and here.
func (p *payloadParser) number() (any, error) {
	start := p.off
	if p.peek() == '-' {
		p.off++
	}
	if p.peek() == '0' {
		p.off++
	} else if !p.digits() {
		return nil, p.errAt("invalid number")
	}
	if p.peek() == '.' {
		p.off++
		if !p.digits() {
			return nil, p.errAt("invalid number fraction")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.off++
		if c := p.peek(); c == '+' || c == '-' {
			p.off++
		}
		if !p.digits() {
			return nil, p.errAt("invalid number exponent")
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.off]), 64)
	if err != nil {
		return nil, fmt.Errorf("payload number at offset %d: %w", start, err)
	}
	return f, nil
}

// stringBytes parses the string literal at the cursor and returns its
// unquoted bytes: a sub-slice of the input when the literal is plain ASCII,
// the decoder's scratch buffer otherwise. Either way the caller must copy
// them (string conversion, interning) before parsing on.
func (p *payloadParser) stringBytes() ([]byte, error) {
	p.off++ // opening quote
	start := p.off
	for p.off < len(p.b) {
		c := p.b[p.off]
		if c == '"' {
			p.off++
			return p.b[start : p.off-1], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		p.off++
	}
	return p.unquote(start)
}

// unquote finishes a string literal that needs rewriting: escapes, and
// non-ASCII bytes that must be checked as UTF-8. p.b[start:p.off] is the
// plain prefix already scanned.
func (p *payloadParser) unquote(start int) ([]byte, error) {
	buf := append(p.d.unquoteBuf[:0], p.b[start:p.off]...)
	for p.off < len(p.b) {
		c := p.b[p.off]
		switch {
		case c == '"':
			p.off++
			p.d.unquoteBuf = buf
			return buf, nil
		case c < 0x20:
			return nil, p.errAt("control character in string")
		case c == '\\':
			var err error
			if buf, err = p.escape(buf); err != nil {
				return nil, err
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			p.off++
		default:
			// An invalid byte decodes as (RuneError, 1) and is written as
			// U+FFFD, like encoding/json and like appendJSONString.
			r, size := utf8.DecodeRune(p.b[p.off:])
			buf = utf8.AppendRune(buf, r)
			p.off += size
		}
	}
	return nil, p.errAt("unterminated string")
}

// escape decodes the backslash escape at the cursor onto buf.
func (p *payloadParser) escape(buf []byte) ([]byte, error) {
	if p.off+1 >= len(p.b) {
		return nil, p.errAt("unterminated string")
	}
	c := p.b[p.off+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := p.hex4(p.off)
		if r < 0 {
			return nil, p.errAt("invalid \\u escape")
		}
		p.off += 6
		if utf16.IsSurrogate(r) {
			// A high half directly followed by a low half is one code point.
			// A lone half becomes U+FFFD and whatever follows it is read on
			// its own.
			if dec := utf16.DecodeRune(r, p.hex4(p.off)); dec != unicode.ReplacementChar {
				p.off += 6
				r = dec
			} else {
				r = unicode.ReplacementChar
			}
		}
		return utf8.AppendRune(buf, r), nil
	default:
		return nil, p.errAt("invalid string escape")
	}
	p.off += 2
	return append(buf, c), nil
}

// hex4 reads a \uXXXX escape at offset i and returns its code unit, or -1
// when the bytes there are anything else.
func (p *payloadParser) hex4(i int) rune {
	if len(p.b)-i < 6 || p.b[i] != '\\' || p.b[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range p.b[i+2 : i+6] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
