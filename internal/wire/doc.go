// Package wire defines the SCI message set and its binary encoding.
//
// # The message set
//
// Everything SCI components say to each other point to point is a Message:
// source and destination GUIDs (never network addresses), a Kind, an
// optional correlation id and hop budget, a kind-specific JSON Body, and —
// on every message that carries events — the events themselves, decoded, in
// Message.Batch (a NativeBatch: the events in publication order, an
// optional piggybacked BatchCredit, and the header the SCINET stamps on a
// batch crossing Ranges: origin, batch id, query id, hop set). There is one
// form of each message:
//
//   - events travel in Message.Batch and nowhere else — a single event is a
//     batch of one (KindEventBatch between a Range and its remote
//     components; the SCINET's own application kind, shipped inline and
//     with no Body, when one fabric sends a batch to a peer);
//   - flow credit rides the reverse-direction batch (NativeBatch.Credit)
//     when there is one, and the standalone KindEventBatchAck otherwise;
//   - every other kind carries only a Body.
//
// Layers above define their bodies (internal/rangesvc, internal/overlay,
// internal/scinet); none of them defines a second shape for events.
//
// # Framing
//
// Every frame is a 4-byte big-endian length followed by at most MaxFrame
// payload bytes, and every payload is binary: it opens with the magic byte
// 0xB5, and a Decoder rejects a frame that does not as ErrBadMessage. There
// is one encoding, so a connection settles nothing but the protocol version
// (below).
//
// # Binary encoding
//
// The payload after the length prefix:
//
//	magic(0xB5) version(0x02) kindID(u8) flags(u8)
//	[kind: uvarint len + bytes]   when kindID == 0 (kind outside the table)
//	src(16 raw) dst(16 raw)
//	[corr: 16 raw]                flags bit 0
//	[ttl: zigzag varint]          flags bit 1
//	[body: uvarint len + bytes]   flags bit 2 — the kind-specific JSON body,
//	                              carried as an opaque sub-blob
//	[batch section]               flags bit 3
//
// kindID indexes the append-only kind table in binary.go (wire ABI); id 0
// means the kind string ships inline (application kinds, which the decoder
// interns per connection), and a retired id is never reassigned. Every
// varint is in its minimal form; a decoder rejects any other.
//
// The batch section is Message.Batch:
//
//	credit: u8 present flag; when 1: events(zigzag) dropped(uvarint)
//	        queue_free(zigzag)
//	header flags: u8 (origin, id, query, via present; 0 on a Range's batch)
//	type dictionary deltas: uvarint count, each uvarint len + bytes
//	guid dictionary deltas: uvarint count, each 16 raw bytes
//	header: [origin: guid ref] [id: 16 raw — unique, never interned]
//	        [query: guid ref] [via: uvarint count, each a guid ref]
//	events: uvarint count, each:
//	    flags(u8: time, quality, payload present)
//	    id(16 raw — unique per event, never interned)
//	    type ref: uvarint; 0 = literal (uvarint len + bytes), n = dict[n-1]
//	    source/subject/range: guid refs
//	    seq(uvarint) [time: unixnano u64 be] [quality: float64 bits u64 be]
//	    [payload]
//
// A guid ref is a uvarint: 0 = nil GUID, 1 = literal 16 raw bytes follow,
// n = dict[n-2]. A payload is an object body in tagged binary:
//
//	object: uvarint count, then count × (key, value); a key is uvarint
//	        len + UTF-8 bytes, keys strictly ascending
//	value:  tag u8 — 0 null, 1 false, 2 true (nothing follows);
//	        3 float: 8 bytes big-endian IEEE bits, never NaN or ±Inf;
//	        4 string: uvarint len + UTF-8 bytes;
//	        5 array: uvarint count, then the values; 6 object: as above
//
// Each connection direction carries two append-only interning dictionaries
// — context types and recurring GUIDs (source/subject/range and the
// header's origin, query and hop set; never event or batch ids). The
// encoder assigns indices in first-use order and ships each entry exactly
// once, as a delta in the frame that first references it; the decoder
// appends deltas in stream order, so the index spaces stay aligned on any
// ordered byte stream. Both sides cap the dictionaries at
// maxDictEntries (overflow values ship as literals; a peer shipping more
// deltas than the cap is malformed), and the state dies with the
// connection: a redial starts empty on both ends.
//
// Steady-state binary encode is allocation-free: the frame is built in a
// reused buffer (taken from a sync.Pool at connection setup, returned when
// the connection dies) behind a reserved length prefix, so each frame is
// one Write on the connection, and payload maps are encoded by a
// non-reflective appender with per-depth reused entry slices.
//
// Encoder cost. Consecutive events of a batch mostly share their type,
// source, subject and range: a coalescer chunk is cut by type, a Range
// stamps its own id on every event it publishes, and one producer
// publishes runs. A field equal to the previous event's is neither
// interned again nor looked up again; its reference repeats the bytes the
// previous event's reference was written as, which are the bytes a lookup
// would give, since the dictionaries do not change once a frame's deltas
// are written. A map lookup is paid only where a field changes. Frames are
// byte-identical to per-event encoding, and the golden streams under
// testdata/golden (TestGoldenFrames) pin that byte for byte. The decoder
// does the same for payload keys: a top-level key equal to the previous
// payload's at the same position reuses the string decoded for it, which
// passed validation, instead of validating and interning the bytes again.
//
// The payload contract (payload.go holds both directions): the encoder
// writes what an encoding/json round trip of the payload decodes to, and
// the decoder delivers it reflect.DeepEqual to that. Integers become
// float64 (rounded to nearest-even, as parsing their decimal text does), a
// float32 the value of encoding/json's shortest 32-bit text, a json.Number
// its parsed value, invalid UTF-8 U+FFFD per byte; NaN and ±Inf are
// rejected, and any other type (json.RawMessage, structs, typed maps and
// slices) takes one reflective slow path through encoding/json. An empty
// payload is absent, as in Event's JSON form. FuzzPayloadRoundTrip holds any
// JSON document to the contract, and FuzzPayloadDecode holds the decoder
// to canonical input: whatever it accepts re-encodes to the same bytes. A
// hostile peer gets ErrBadMessage for nesting deeper than maxPayloadDepth
// (encoding/json's own 10000, checked before recursing further), a count
// beyond the bytes left, a NaN or infinite float, invalid UTF-8 or keys
// out of order. Object keys are interned per connection — one string per
// distinct key, not one per event — in a table that stops growing at
// maxDictEntries strings of at most maxInternedKeyLen bytes; later or
// longer keys still decode, uninterned.
//
// # The version rule
//
// The message set as a whole — kinds, bodies, the one-form rules above —
// has a single protocol version, and a connection carries messages only
// between two sides that state the same one. A dialing endpoint opens each
// connection with a binary KindHello frame whose Body is a Hello holding its
// Version and nothing else, and waits, bounded, for the accept side's
// answer on the same socket: a hello stating the accept side's Version,
// the first frame the accept side writes on it. After the hello both ends
// read and write the one connection. A different version, an answer that
// is not a hello, or no answer within the bound fails the dial with
// transport.ErrProtocolVersion and closes the socket; the accept side
// likewise closes a connection whose first frame is not a hello of its own
// version, delivering nothing from it, and answers a well-formed hello of
// another version first, so that dialer's error names both versions. There
// is no downgrade and no per-feature capability: a message a peer of this
// version sends is a message every peer of this version understands.
// internal/transport owns the version constant and the check.
//
// The version moves whenever a message changes meaning, application
// payloads that upper layers carry included, so a mixed fleet fails at
// connect instead of misreading traffic. Version 2: SCINET peer traffic
// goes on direct links, and the hierarchy's digest announcement no longer
// names the link it is for — a version-1 receiver would bounce every
// version-2 digest as misdelivered. Version 3 (binary version 2): a SCINET
// batch's origin, id, query and hop set travel in the batch header instead
// of a JSON body, an overlay direct send carries the application kind as
// the message kind instead of a route envelope, and payloads are tagged
// binary instead of JSON text. Version 4: the JSON frame encoding and the
// codec offer are gone, and the hello itself is a binary frame carrying
// only the version. Version 3 spoke both encodings, so a version-3 accept
// side still reads a version-4 hello and closes on the version; its JSON
// answer, like a version-3 dialer's JSON hello, is a malformed frame here,
// and either dial ends in the version error. Version 5: every SCINET
// control body has one form — no body names its sender (the envelope's Src
// does), scinet.leave has no body, an interest announcement carries the
// owner's whole set, and the interest resync request is gone.
//
// # Sharing
//
// A NativeBatch attached to a Message is handed over: the memory transport
// delivers the same pointer, possibly to several receivers, so senders
// never touch it again, receivers copy events before modifying them, and a
// relay that re-stamps the header builds a new batch sharing the events
// (scilint's batchshare analyzer enforces this, in this package too).
package wire
