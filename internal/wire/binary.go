package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// Binary frame layout (after the shared 4-byte big-endian length prefix;
// full contract in doc.go):
//
//	magic(0xB5) version(0x02) kindID(u8) flags(u8)
//	[kind uvarint-len + bytes]     when kindID == 0 (kind not in the table)
//	src(16) dst(16)
//	[corr(16)]                     flags&flagCorr
//	[ttl varint]                   flags&flagTTL
//	[body uvarint-len + bytes]     flags&flagBody (opaque JSON sub-blob)
//	[batch section]                flags&flagBatch
//
// A frame that does not open with the magic byte is malformed.
const (
	magicByte     = 0xB5
	binaryVersion = 2
)

// Envelope flags.
const (
	flagCorr byte = 1 << iota
	flagTTL
	flagBody
	flagBatch
)

// Batch header flags: which of the NativeBatch header fields follow the
// dictionary deltas.
const (
	hdrOrigin byte = 1 << iota
	hdrID
	hdrQuery
	hdrVia
)

// Per-event flags inside a batch section.
const (
	evfTime byte = 1 << iota
	evfQuality
	evfPayload
)

// maxDictEntries bounds each per-connection interning dictionary (types and
// GUIDs separately). Beyond it, values ship as literals; both sides enforce
// the bound so a hostile peer cannot grow decoder state without limit.
const maxDictEntries = 4096

// kindTable assigns the well-known kinds their one-byte wire ids. The order
// is wire ABI: append only. Index 0 is reserved for "kind shipped inline";
// index 10 is retired and never reassigned (it decodes to an empty kind,
// which Validate rejects).
var kindTable = []Kind{
	0:  "",
	1:  KindAnnounce,
	2:  KindRegister,
	3:  KindRegisterAck,
	4:  KindDeregister,
	5:  KindDeregisterAck,
	6:  KindHeartbeat,
	7:  KindQuery,
	8:  KindQueryResult,
	9:  KindQueryError,
	10: "",
	11: KindEventBatch,
	12: KindEventBatchAck,
	13: KindServiceCall,
	14: KindServiceReply,
	15: KindOverlayJoin,
	16: KindOverlayJoinReply,
	17: KindOverlayPing,
	18: KindOverlayPong,
	19: KindOverlayRoute,
	20: KindHello,
}

var kindIDs = func() map[Kind]byte {
	m := make(map[Kind]byte, len(kindTable))
	for i, k := range kindTable {
		if k != "" {
			m[k] = byte(i)
		}
	}
	return m
}()

// ----- encoding -----

// appendBinary serialises one message into b. Per-event cost on the
// steady-state wire path: it must stay allocation-free so encode cost is
// bounded by the copy, not the collector.
//
//lint:hotpath
func (e *Encoder) appendBinary(b []byte, m Message) ([]byte, error) {
	var flags byte
	if !m.Corr.IsNil() {
		flags |= flagCorr
	}
	if m.TTL != 0 {
		flags |= flagTTL
	}
	if len(m.Body) > 0 {
		flags |= flagBody
	}
	if m.Batch != nil {
		flags |= flagBatch
	}
	id := kindIDs[m.Kind]
	b = append(b, magicByte, binaryVersion, id, flags)
	if id == 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Kind)))
		b = append(b, m.Kind...)
	}
	b = append(b, m.Src[:]...)
	b = append(b, m.Dst[:]...)
	if flags&flagCorr != 0 {
		b = append(b, m.Corr[:]...)
	}
	if flags&flagTTL != 0 {
		b = binary.AppendVarint(b, int64(m.TTL))
	}
	if flags&flagBody != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Body)))
		b = append(b, m.Body...)
	}
	if flags&flagBatch != 0 {
		return e.appendBatch(b, m.Batch)
	}
	return b, nil
}

//lint:hotpath
func (e *Encoder) appendBatch(b []byte, nb *NativeBatch) ([]byte, error) {
	if nb.Credit != nil {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(nb.Credit.Events))
		b = binary.AppendUvarint(b, nb.Credit.Dropped)
		b = binary.AppendVarint(b, int64(nb.Credit.QueueFree))
	} else {
		b = append(b, 0)
	}
	var hf byte
	if !nb.Origin.IsNil() {
		hf |= hdrOrigin
	}
	if !nb.ID.IsNil() {
		hf |= hdrID
	}
	if !nb.Query.IsNil() {
		hf |= hdrQuery
	}
	if len(nb.Via) > 0 {
		hf |= hdrVia
	}
	b = append(b, hf)

	// Dictionary deltas: every type/GUID of this batch not yet shipped to
	// the peer is assigned the next index and sent once, here, before the
	// header and events that reference it. Both sides append in stream
	// order, so the index spaces stay aligned on an ordered connection.
	if e.types == nil {
		//lint:allow hotpath dictionary maps built once per connection, before the first batch
		e.types = make(map[string]uint32)
		//lint:allow hotpath dictionary maps built once per connection, before the first batch
		e.guids = make(map[guid.GUID]uint32)
	}
	e.newTypes = e.newTypes[:0]
	e.newGUIDs = e.newGUIDs[:0]
	e.internGUID(nb.Origin)
	e.internGUID(nb.Query)
	for _, g := range nb.Via {
		e.internGUID(g)
	}
	// A field equal to the previous event's was interned with it: interning
	// it again cannot change the dictionary, so it is skipped.
	prev := &noEvent
	for i := range nb.Events {
		ev := &nb.Events[i]
		if ev.Type != prev.Type {
			e.internType(string(ev.Type))
		}
		if ev.Source != prev.Source {
			e.internGUID(ev.Source)
		}
		if ev.Subject != prev.Subject {
			e.internGUID(ev.Subject)
		}
		if ev.Range != prev.Range {
			e.internGUID(ev.Range)
		}
		prev = ev
	}
	b = binary.AppendUvarint(b, uint64(len(e.newTypes)))
	for _, t := range e.newTypes {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	b = binary.AppendUvarint(b, uint64(len(e.newGUIDs)))
	for _, g := range e.newGUIDs {
		b = append(b, g[:]...)
	}

	if hf&hdrOrigin != 0 {
		b = e.appendGUIDRef(b, nb.Origin)
	}
	if hf&hdrID != 0 {
		b = append(b, nb.ID[:]...) // batch ids are unique: never interned
	}
	if hf&hdrQuery != 0 {
		b = e.appendGUIDRef(b, nb.Query)
	}
	if hf&hdrVia != 0 {
		b = binary.AppendUvarint(b, uint64(len(nb.Via)))
		for _, g := range nb.Via {
			b = e.appendGUIDRef(b, g)
		}
	}

	// The dictionaries are fixed from here on, so a field equal to the
	// previous event's encodes to the previous event's reference bytes:
	// refs remembers where in b they are, and the event copies them.
	var refs eventRefs
	b = binary.AppendUvarint(b, uint64(len(nb.Events)))
	prev = &noEvent
	for i := range nb.Events {
		ev := &nb.Events[i]
		var err error
		if b, err = e.appendEvent(b, ev, prev, &refs); err != nil {
			return b, err
		}
		prev = ev
	}
	return b, nil
}

// noEvent stands before a batch's first event. Its empty type and nil GUIDs
// are never interned, and no reference of its was written.
var noEvent event.Event

// eventRefs records where in the frame the references of the previous
// event's type, source, subject and range were last written.
type eventRefs struct{ typ, src, subj, rng span }

// span is a run b[off:end] of the frame being built; the zero span is
// unset (a reference never sits at the frame's start).
type span struct{ off, end int }

// appendEvent appends ev. prev is the batch's previous event (noEvent for
// the first) and refs where its references were written.
//
//lint:hotpath
func (e *Encoder) appendEvent(b []byte, ev, prev *event.Event, refs *eventRefs) ([]byte, error) {
	var fl byte
	if !ev.Time.IsZero() {
		fl |= evfTime
	}
	if ev.Quality != 0 {
		fl |= evfQuality
	}
	if len(ev.Payload) > 0 {
		// An empty payload is absent, as in Event's JSON form (omitempty).
		fl |= evfPayload
	}
	b = append(b, fl)
	b = append(b, ev.ID[:]...) // event ids are unique: never interned
	b = e.appendTypeRefRun(b, string(ev.Type), ev.Type == prev.Type, &refs.typ)
	b = e.appendGUIDRefRun(b, ev.Source, ev.Source == prev.Source, &refs.src)
	b = e.appendGUIDRefRun(b, ev.Subject, ev.Subject == prev.Subject, &refs.subj)
	b = e.appendGUIDRefRun(b, ev.Range, ev.Range == prev.Range, &refs.rng)
	b = binary.AppendUvarint(b, ev.Seq)
	if fl&evfTime != 0 {
		b = binary.BigEndian.AppendUint64(b, uint64(ev.Time.UnixNano()))
	}
	if fl&evfQuality != 0 {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ev.Quality))
	}
	if fl&evfPayload != 0 {
		//lint:allow hotpath the summary sees appendValue's error and slow paths (malformed payloads, value types beyond the JSON ones); builtin values take neither
		return e.appendPayload(b, ev.Payload)
	}
	return b, nil
}

// internType records t as a dictionary delta of the current frame if it is
// new and the dictionary has room.
func (e *Encoder) internType(t string) {
	if t == "" {
		return
	}
	if _, ok := e.types[t]; ok {
		return
	}
	if len(e.types) >= maxDictEntries {
		return
	}
	e.types[t] = uint32(len(e.types))
	e.newTypes = append(e.newTypes, t)
}

func (e *Encoder) internGUID(g guid.GUID) {
	if g.IsNil() {
		return
	}
	if _, ok := e.guids[g]; ok {
		return
	}
	if len(e.guids) >= maxDictEntries {
		return
	}
	e.guids[g] = uint32(len(e.guids))
	e.newGUIDs = append(e.newGUIDs, g)
}

// appendTypeRef writes a type reference: 0 = literal follows (uvarint len +
// bytes), n ≥ 1 = dictionary index n-1.
func (e *Encoder) appendTypeRef(b []byte, t string) []byte {
	if idx, ok := e.types[t]; ok {
		return binary.AppendUvarint(b, uint64(idx)+1)
	}
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(t)))
	return append(b, t...)
}

// appendGUIDRef writes a GUID reference: 0 = nil, 1 = literal 16 bytes
// follow, n ≥ 2 = dictionary index n-2.
func (e *Encoder) appendGUIDRef(b []byte, g guid.GUID) []byte {
	if g.IsNil() {
		return binary.AppendUvarint(b, 0)
	}
	if idx, ok := e.guids[g]; ok {
		return binary.AppendUvarint(b, uint64(idx)+2)
	}
	b = binary.AppendUvarint(b, 1)
	return append(b, g[:]...)
}

// appendTypeRefRun appends t's reference. If t is the previous event's
// type (same) and *s holds that event's reference, those bytes repeat;
// otherwise the reference is looked up and *s records where it went.
func (e *Encoder) appendTypeRefRun(b []byte, t string, same bool, s *span) []byte {
	if same && s.end != 0 {
		return append(b, b[s.off:s.end]...)
	}
	s.off = len(b)
	b = e.appendTypeRef(b, t)
	s.end = len(b)
	return b
}

// appendGUIDRefRun is appendTypeRefRun for a GUID field.
func (e *Encoder) appendGUIDRefRun(b []byte, g guid.GUID, same bool, s *span) []byte {
	if same && s.end != 0 {
		return append(b, b[s.off:s.end]...)
	}
	s.off = len(b)
	b = e.appendGUIDRef(b, g)
	s.end = len(b)
	return b
}

// commitDict accepts the current frame's dictionary deltas (the frame
// shipped); rollbackDict discards them (the frame never reached the peer,
// so the peer's mirror must not learn the entries).
func (e *Encoder) commitDict() {
	e.newTypes = e.newTypes[:0]
	e.newGUIDs = e.newGUIDs[:0]
}

func (e *Encoder) rollbackDict() {
	for _, t := range e.newTypes {
		delete(e.types, t)
	}
	for _, g := range e.newGUIDs {
		delete(e.guids, g)
	}
	e.newTypes = e.newTypes[:0]
	e.newGUIDs = e.newGUIDs[:0]
}

// ----- decoding -----

// cursor walks a binary frame with sticky bounds checking: the first
// failure latches and every later read returns zero values, so decode paths
// stay linear and the error surfaces once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cursor) rem() int { return len(c.b) - c.off }

func (c *cursor) u8() byte {
	if c.err != nil || c.off >= len(c.b) {
		c.fail("truncated frame at byte %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.rem() < n {
		c.fail("truncated frame: need %d bytes at offset %d, have %d", n, c.off, c.rem())
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// uvarint and varint accept only the minimal encoding the encoder emits
// (no trailing zero group), so every value has one form on the wire.
func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || (n > 1 && c.b[c.off+n-1] == 0) {
		c.fail("bad varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 || (n > 1 && c.b[c.off+n-1] == 0) {
		c.fail("bad varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if c.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) guid() guid.GUID {
	b := c.take(guid.Size)
	var g guid.GUID
	if c.err == nil {
		copy(g[:], b)
	}
	return g
}

// blob reads a uvarint-length-prefixed byte run, bounds-checked against the
// remaining frame.
func (c *cursor) blob() []byte {
	n := c.uvarint()
	if c.err == nil && n > uint64(c.rem()) {
		c.fail("blob length %d exceeds remaining %d bytes", n, c.rem())
		return nil
	}
	return c.take(int(n))
}

func (d *Decoder) decodeBinaryFrame(data []byte) (Message, error) {
	c := cursor{b: data}
	if magic := c.u8(); c.err == nil && magic != magicByte {
		return Message{}, fmt.Errorf("%w: frame opens with %#x, not the magic byte", ErrBadMessage, magic)
	}
	if ver := c.u8(); c.err == nil && ver != binaryVersion {
		return Message{}, fmt.Errorf("%w: unsupported binary version %d", ErrBadMessage, ver)
	}
	kid := c.u8()
	flags := c.u8()
	var m Message
	switch {
	case c.err != nil:
	case kid == 0:
		// Inline kinds are application kinds riding a stream: interned, so
		// a run of them allocates no string per frame.
		if k := c.blob(); c.err == nil {
			m.Kind = Kind(d.internKey(k))
		}
	case int(kid) < len(kindTable):
		m.Kind = kindTable[kid]
	default:
		return Message{}, fmt.Errorf("%w: unknown kind id %d", ErrBadMessage, kid)
	}
	m.Src = c.guid()
	m.Dst = c.guid()
	if flags&flagCorr != 0 {
		m.Corr = c.guid()
	}
	if flags&flagTTL != 0 {
		m.TTL = int(c.varint())
	}
	if flags&flagBody != 0 {
		if raw := c.blob(); c.err == nil {
			m.Body = append(json.RawMessage(nil), raw...)
		}
	}
	if flags&flagBatch != 0 {
		m.Batch = d.decodeBatch(&c)
	}
	if c.err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, c.err)
	}
	if n := c.rem(); n != 0 {
		return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, n)
	}
	if err := m.Validate(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// creditBatch holds a batch and its credit report in one allocation.
type creditBatch struct {
	nb     NativeBatch
	credit BatchCredit
}

// decodeBatch fills a local batch and moves it to the heap once whole: one
// allocation, shared with the credit report when one rides along.
func (d *Decoder) decodeBatch(c *cursor) *NativeBatch {
	var nb NativeBatch
	var credit BatchCredit
	hasCredit := c.u8()
	switch hasCredit {
	case 0:
	case 1:
		credit = BatchCredit{
			Events:    int(c.varint()),
			Dropped:   c.uvarint(),
			QueueFree: int(c.varint()),
		}
	default:
		c.fail("bad credit flag %d", hasCredit)
	}
	hf := c.u8()
	if hf&^(hdrOrigin|hdrID|hdrQuery|hdrVia) != 0 {
		c.fail("bad batch header flags %#x", hf)
	}

	ntypes := c.uvarint()
	if c.err == nil && ntypes > uint64(c.rem()) {
		c.fail("type delta count %d exceeds frame", ntypes)
	}
	for i := uint64(0); i < ntypes && c.err == nil; i++ {
		t := string(c.blob())
		if c.err != nil {
			break
		}
		if len(d.types) >= maxDictEntries {
			c.fail("type dictionary overflow")
			break
		}
		d.types = append(d.types, t)
	}
	nguids := c.uvarint()
	if c.err == nil && nguids > uint64(c.rem())/guid.Size {
		c.fail("guid delta count %d exceeds frame", nguids)
	}
	for i := uint64(0); i < nguids && c.err == nil; i++ {
		g := c.guid()
		if c.err != nil {
			break
		}
		if len(d.guids) >= maxDictEntries {
			c.fail("guid dictionary overflow")
			break
		}
		d.guids = append(d.guids, g)
	}

	if hf&hdrOrigin != 0 {
		nb.Origin = d.guidRef(c)
	}
	if hf&hdrID != 0 {
		nb.ID = c.guid()
	}
	if hf&hdrQuery != 0 {
		nb.Query = d.guidRef(c)
	}
	if hf&hdrVia != 0 {
		nvia := c.uvarint()
		// Every member costs at least one reference byte.
		if c.err == nil && nvia > uint64(c.rem()) {
			c.fail("via count %d exceeds frame", nvia)
		}
		if c.err == nil {
			nb.Via = make([]guid.GUID, nvia)
			for i := range nb.Via {
				nb.Via[i] = d.guidRef(c)
			}
		}
	}

	nevents := c.uvarint()
	// Every event costs at least its flag byte + raw id, so the count is
	// bounded by the remaining frame; reject inflated counts before the
	// slice allocation trusts them.
	if c.err == nil && nevents > uint64(c.rem()/(1+guid.Size)) {
		c.fail("event count %d exceeds frame", nevents)
	}
	if c.err != nil {
		return nil
	}
	nb.Events = make([]event.Event, nevents)
	for i := range nb.Events {
		if d.decodeEvent(c, &nb.Events[i]); c.err != nil {
			return nil
		}
	}
	if hasCredit == 0 {
		out := nb // nb itself stays on the stack
		return &out
	}
	cb := &creditBatch{nb: nb, credit: credit}
	cb.nb.Credit = &cb.credit
	return &cb.nb
}

// decodeEvent fills ev, a zero element of the batch's slice, in place.
func (d *Decoder) decodeEvent(c *cursor, ev *event.Event) {
	fl := c.u8()
	ev.ID = c.guid()
	ev.Type = d.typeRef(c)
	ev.Source = d.guidRef(c)
	ev.Subject = d.guidRef(c)
	ev.Range = d.guidRef(c)
	ev.Seq = c.uvarint()
	if fl&evfTime != 0 {
		ev.Time = time.Unix(0, int64(c.u64()))
	}
	if fl&evfQuality != 0 {
		ev.Quality = math.Float64frombits(c.u64())
	}
	if fl&evfPayload != 0 {
		ev.Payload = d.decodePayload(c)
	}
}

func (d *Decoder) typeRef(c *cursor) ctxtype.Type {
	r := c.uvarint()
	if c.err != nil {
		return ""
	}
	if r == 0 {
		return ctxtype.Type(c.blob())
	}
	if r-1 >= uint64(len(d.types)) {
		c.fail("type ref %d out of dictionary range %d", r, len(d.types))
		return ""
	}
	return ctxtype.Type(d.types[r-1])
}

func (d *Decoder) guidRef(c *cursor) guid.GUID {
	r := c.uvarint()
	switch {
	case c.err != nil || r == 0:
		return guid.Nil
	case r == 1:
		return c.guid()
	case r-2 < uint64(len(d.guids)):
		return d.guids[r-2]
	default:
		c.fail("guid ref %d out of dictionary range %d", r, len(d.guids))
		return guid.Nil
	}
}
