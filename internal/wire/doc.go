// Package wire defines the message envelope, framing and codecs used for
// all point-to-point communication in SCI.
//
// # Framing
//
// Every frame is a 4-byte big-endian length followed by at most MaxFrame
// payload bytes. Two payload encodings exist, and a frame declares its own:
// a JSON payload always begins with '{', a binary payload with the magic
// byte 0xB5 (which can never open a JSON document). A Decoder therefore
// handles arbitrarily interleaved JSON and binary frames on one connection
// with no negotiation state — negotiation only ever decides what a peer's
// Encoder emits.
//
// # JSON codec
//
// The original format: the JSON encoding of Message (src, dst, kind, corr,
// ttl, body). Every peer, of every version, decodes it. The Encoder
// assembles the envelope by hand in one pass over a pooled buffer — the
// pre-encoded Body is spliced in once, not re-validated, re-compacted and
// copied again as json.Marshal of the envelope used to do.
//
// # Binary codec
//
// The binary payload after the length prefix:
//
//	magic(0xB5) version(0x01) kindID(u8) flags(u8)
//	[kind: uvarint len + bytes]   when kindID == 0 (kind outside the table)
//	src(16 raw) dst(16 raw)
//	[corr: 16 raw]                flags bit 0
//	[ttl: zigzag varint]          flags bit 1
//	[body: uvarint len + bytes]   flags bit 2 — the kind-specific JSON body,
//	                              carried as an opaque sub-blob
//	[batch section]               flags bit 3
//
// kindID indexes the append-only kind table in binary.go (wire ABI); id 0
// means the kind string ships inline.
//
// The batch section encodes a whole event batch natively — the contiguous
// form a Message carries decoded in Message.Batch (NativeBatch):
//
//	credit: u8 present flag; when 1: events(zigzag) dropped(uvarint)
//	        queue_free(zigzag)
//	type dictionary deltas: uvarint count, each uvarint len + bytes
//	guid dictionary deltas: uvarint count, each 16 raw bytes
//	events: uvarint count, each:
//	    flags(u8: time, quality, payload present)
//	    id(16 raw — unique per event, never interned)
//	    type ref: uvarint; 0 = literal (uvarint len + bytes), n = dict[n-1]
//	    source/subject/range refs: uvarint; 0 = nil GUID,
//	        1 = literal 16 raw bytes, n = dict[n-2]
//	    seq(uvarint) [time: unixnano u64 be] [quality: float64 bits u64 be]
//	    [payload: uvarint len + JSON object bytes]
//
// # Dictionary interning
//
// Each connection direction carries two append-only dictionaries — context
// types and recurring GUIDs (source/subject/range; never event ids). The
// encoder assigns indices in first-use order and ships each entry exactly
// once, as a delta in the frame that first references it; the decoder
// appends deltas in stream order, so the index spaces stay aligned on any
// ordered byte stream. Both sides cap the dictionaries at maxDictEntries
// (overflow values ship as literals; a peer shipping more deltas than the
// cap is malformed), and the state dies with the connection: a redial
// starts empty on both ends.
//
// Steady-state binary encode is allocation-free: the frame is built in a
// reused buffer (taken from a sync.Pool at connection setup, returned when
// the connection dies), payload maps are encoded by a non-reflective
// appender with per-depth reused key slices, and dictionary hits cost a map
// lookup.
//
// # Payload decoding
//
// An event's payload travels as JSON object text inside the binary frame
// (payload.go holds both directions). The decoder parses it with its own
// single-pass parser rather than encoding/json, under an equality contract:
// for any bytes, it rejects exactly what json.Unmarshal into a
// map[string]any rejects and otherwise returns a reflect.DeepEqual value —
// numbers arrive as float64 (a literal float64 cannot hold is an error),
// nested objects as map[string]any, arrays as []any, a duplicate key keeps
// its last value, invalid UTF-8 and lone surrogates become U+FFFD.
// FuzzPayloadDecode checks the contract differentially against
// encoding/json. Two bounds protect the decoder from a hostile peer:
// nesting deeper than maxPayloadDepth (encoding/json's own 10000) fails with
// ErrBadMessage instead of recursing further, and object keys are interned
// per connection — one string per distinct key, not one per event — in a
// table that stops growing at maxDictEntries keys of at most
// maxInternedKeyLen bytes; later or longer keys still decode, uninterned.
//
// # Version negotiation
//
// A dialing endpoint opens each connection with a JSON-encoded
// KindCodecHello frame listing the codecs it speaks, then waits briefly for
// the accept side's one-shot answer on the same socket (the only byte the
// accept side ever writes on an inbound connection). A codec-aware accept
// side answers with its choice (CodecHello.Chosen) and decodes whatever
// arrives next either way; a legacy accept side ignores the unknown kind —
// the same stance PR 2/PR 5 established for event.batch and credit fields —
// and the dialer's deadline expires into the JSON fallback. Forcing
// Codec "json" on an endpoint skips the hello entirely and emits strictly
// legacy frames, which doubles as an in-process stand-in for a legacy peer.
//
// Decoding is always mixed-version: unknown kinds, absent credit fields and
// JSON frames from a binary-negotiated peer all remain valid.
//
// # Native batches above this layer
//
// Message.Batch carries events decoded end to end: the memory transport
// delivers the pointer untouched, binary connections encode it as the batch
// section, and JSON connections fold it back into the legacy body with
// Materialize — for kinds that nest batches inside their own body format
// (the overlay's routed payloads), via the fold hook installed with
// RegisterBatchFolder.
package wire
