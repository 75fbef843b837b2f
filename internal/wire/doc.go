// Package wire defines the SCI message set and its two encodings.
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
// payload bytes. A frame declares its own encoding: a JSON payload always
// begins with '{', a binary payload with the magic byte 0xB5 (which can
// never open a JSON document). A Decoder therefore needs no per-connection
// state to tell them apart; the connection hello (below) only decides what
// the peer's Encoder emits. Both encodings decode to the same Message —
// FuzzBinaryRoundTrip holds them to reflect.DeepEqual.
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
// the connection dies), payload maps are encoded by a non-reflective
// appender with per-depth reused entry slices, and dictionary hits cost a
// map lookup.
//
// The payload contract (payload.go holds both directions): the encoder
// writes what a JSON-codec round trip of the payload decodes to, so both
// codecs decode one message to reflect.DeepEqual values. Integers become
// float64 (rounded to nearest-even, as parsing their decimal text does), a
// float32 the value of encoding/json's shortest 32-bit text, a json.Number
// its parsed value, invalid UTF-8 U+FFFD per byte; NaN and ±Inf are
// rejected, and any other type (json.RawMessage, structs, typed maps and
// slices) takes one reflective slow path through encoding/json. An empty
// payload is absent, as on the JSON codec. FuzzPayloadRoundTrip holds any
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
// # JSON encoding
//
// The same Message as one JSON object — src, dst, kind, corr, ttl, body,
// batch — where batch is {"events":[…],"credit":{…},"origin":…,"id":…,
// "query":…,"via":[…]} with each event in event.Event's JSON form and zero
// header fields omitted. It exists so a connection can be read by eye
// (transport.Config.Codec = "json"); nothing depends on it for
// interoperability. The Encoder assembles the envelope by hand in one pass
// over a pooled buffer (the pre-encoded Body is spliced in, not re-validated
// and re-copied by json.Marshal); the Decoder fills Message.Batch back in
// and gives event times the representation the binary decoder produces (an
// instant: unix nanoseconds, no zone). A payload that is present but empty
// is omitted, so it decodes as absent.
//
// # The version rule
//
// The message set as a whole — kinds, bodies, the one-form rules above —
// has a single protocol version, and a connection carries messages only
// between two sides that state the same one. A dialing endpoint opens each
// connection with a JSON-encoded KindCodecHello (CodecHello: its Version and
// the codecs it offers, preferred first) and waits, bounded, for the accept
// side's answer on the same socket: the accept side's Version and the codec
// it chose — the only bytes an accept side ever writes on an inbound
// connection. A different version, an answer that is not a hello, or no
// answer within the bound fails the dial with transport.ErrProtocolVersion
// and closes the socket; the accept side likewise closes a connection whose
// first frame is not a hello of its own version, delivering nothing from
// it. There is no downgrade and no per-feature capability: a message a peer
// of this version sends is a message every peer of this version
// understands. internal/transport owns the version constant and the check.
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
// binary instead of JSON text.
//
// # Sharing
//
// A NativeBatch attached to a Message is handed over: the memory transport
// delivers the same pointer, possibly to several receivers, so senders
// never touch it again, receivers copy events before modifying them, and a
// relay that re-stamps the header builds a new batch sharing the events
// (scilint's batchshare analyzer enforces this, in this package too).
package wire
