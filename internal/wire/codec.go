package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sci/internal/event"
	"sci/internal/guid"
)

// Codec names the one frame encoding. It survives only as NewEncoder's
// second parameter, which the benchmark harness (bench/) passes; the next
// change to bench/ drops both.
type Codec string

// CodecBinary is the length-prefixed binary envelope with native batch
// sections and per-connection interned dictionaries (see doc.go).
const CodecBinary Codec = "binary"

// NativeBatch is a whole event batch carried in decoded form on a Message.
// The batch is handed over: once attached to a Message given to a transport
// the caller must neither mutate nor append to any of its fields (the
// in-process memory transport delivers it pointer-identical, possibly to
// several receivers), and receivers must copy events before modifying them.
type NativeBatch struct {
	// Events are the batched events, ordered as published.
	Events []event.Event `json:"events"`
	// Credit optionally piggybacks the sender's receive-side flow-control
	// report, sparing a standalone event.batch_ack. Receivers treat nil as
	// "no report", never as an all-clear.
	Credit *BatchCredit `json:"credit,omitempty"`

	// The header: what the SCINET stamps on a batch crossing Ranges (all
	// zero on a Range's own batches). Origin is the fabric that published
	// the events, ID names the batch for duplicate suppression, Query is
	// set when the batch carries results of one forwarded query, and Via
	// names every fabric the batch already covers.
	Origin guid.GUID   `json:"origin,omitzero"`
	ID     guid.GUID   `json:"id,omitzero"`
	Query  guid.GUID   `json:"query,omitzero"`
	Via    []guid.GUID `json:"via,omitempty"`
}

// NewNativeEventBatch builds a KindEventBatch message carrying the events
// natively. The events slice is handed over to the message (see
// NativeBatch); credit may be nil.
func NewNativeEventBatch(src, dst guid.GUID, events []event.Event, credit *BatchCredit) (Message, error) {
	if len(events) == 0 {
		return Message{}, fmt.Errorf("%w: empty event batch", ErrBadMessage)
	}
	return Message{
		Src: src, Dst: dst, Kind: KindEventBatch,
		Batch: &NativeBatch{Events: events, Credit: credit},
	}, nil
}

// Hello is the body of a KindHello frame: the protocol version of the side
// sending it, in the dialer's opening frame and in the accept side's
// answer. The two must be equal for the connection to carry anything else;
// internal/transport owns the check.
type Hello struct {
	Version int `json:"version"`
}

// frameBufPool recycles encode/decode frame buffers across connection
// churn: an Encoder or Decoder takes its buffers from the pool on first use
// and keeps them for its lifetime (steady state touches the pool not at
// all), and Release returns them when the connection dies so redials and
// accept-side turnover stop paying the warm-up allocations.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func poolGetBuf() []byte  { return (*(frameBufPool.Get().(*[]byte)))[:0] }
func poolPutBuf(b []byte) { b = b[:0]; frameBufPool.Put(&b) }

// Encoder frames messages onto an io.Writer. Not safe for concurrent use;
// callers serialise (internal/transport does).
type Encoder struct {
	bw     *bufio.Writer
	lenBuf [4]byte
	bytes  atomic.Uint64

	// Reused encode state: the frame buffer (taken from frameBufPool on
	// first use) and per-depth payload entry slices.
	scratch    []byte
	entryStack [][]payloadEntry

	// Per-connection interning dictionaries: types and GUIDs already
	// shipped to the peer, by index. newTypes/newGUIDs are the current
	// frame's dictionary deltas, kept for rollback when an encode fails
	// before the frame ships.
	types    map[string]uint32
	guids    map[guid.GUID]uint32
	newTypes []string
	newGUIDs []guid.GUID
}

// NewEncoder wraps w. The Codec argument is ignored: CodecBinary is its
// only value (see Codec).
func NewEncoder(w io.Writer, _ Codec) *Encoder {
	return &Encoder{bw: bufio.NewWriter(w)}
}

// BytesWritten reports the cumulative bytes this encoder has put on the
// wire, length prefixes included. Safe to read concurrently with Write.
func (e *Encoder) BytesWritten() uint64 { return e.bytes.Load() }

// Release returns the encoder's pooled buffers; the encoder must not be
// used afterwards. Called when the owning connection dies.
func (e *Encoder) Release() {
	if e.scratch != nil {
		poolPutBuf(e.scratch)
		e.scratch = nil
	}
}

// Write frames and flushes one message. A Body that is not valid JSON is
// rejected before anything ships: no receiver could decode it.
func (e *Encoder) Write(m Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(m.Body) > 0 && !json.Valid(m.Body) {
		return fmt.Errorf("%w: body is not valid JSON", ErrBadMessage)
	}
	if e.scratch == nil {
		e.scratch = poolGetBuf()
	}
	var err error
	e.scratch, err = e.appendBinary(e.scratch[:0], m)
	if err == nil && len(e.scratch) > MaxFrame {
		err = ErrFrameTooLarge
	}
	if err != nil {
		e.rollbackDict()
		return err
	}
	e.commitDict()
	binary.BigEndian.PutUint32(e.lenBuf[:], uint32(len(e.scratch)))
	if _, err := e.bw.Write(e.lenBuf[:]); err != nil {
		return fmt.Errorf("wire: write length: %w", err)
	}
	if _, err := e.bw.Write(e.scratch); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	e.bytes.Add(uint64(len(e.scratch)) + 4)
	return nil
}

// Decoder unframes messages from an io.Reader. Not safe for concurrent use.
type Decoder struct {
	br     *bufio.Reader
	lenBuf [4]byte
	bytes  atomic.Uint64

	// buf is the reused frame buffer: decoded fields are copied out, so the
	// frame memory never escapes a Read.
	buf []byte

	// Per-connection mirror of the peer encoder's interning dictionaries,
	// appended to in stream order from each frame's dictionary deltas.
	types []string
	guids []guid.GUID

	// Strings seen on this connection — payload keys and inline kinds —
	// interned up to maxDictEntries entries of at most maxInternedKeyLen
	// bytes (payload.go).
	keys map[string]string
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// BytesRead reports the cumulative bytes this decoder has consumed, length
// prefixes included. Safe to read concurrently with Read.
func (d *Decoder) BytesRead() uint64 { return d.bytes.Load() }

// Release returns the decoder's pooled buffer; the decoder must not be used
// afterwards.
func (d *Decoder) Release() {
	if d.buf != nil {
		poolPutBuf(d.buf)
		d.buf = nil
	}
}

// Read reads one framed message. On clean EOF between frames it returns
// io.EOF; a truncated frame yields io.ErrUnexpectedEOF; a corrupt frame —
// one that does not open with the magic byte included — a typed error
// wrapping ErrBadMessage (never a panic).
func (d *Decoder) Read() (Message, error) {
	if _, err := io.ReadFull(d.br, d.lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("wire: read length: %w", err)
	}
	n := int(binary.BigEndian.Uint32(d.lenBuf[:]))
	if n > MaxFrame {
		return Message{}, ErrFrameTooLarge
	}
	if n == 0 {
		return Message{}, fmt.Errorf("%w: empty frame", ErrBadMessage)
	}
	if d.buf == nil {
		d.buf = poolGetBuf()
	}
	if cap(d.buf) < n {
		poolPutBuf(d.buf)
		d.buf = make([]byte, n)
	}
	data := d.buf[:n]
	if _, err := io.ReadFull(d.br, data); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, fmt.Errorf("wire: read frame: %w", err)
	}
	d.bytes.Add(uint64(n) + 4)
	return d.decodeBinaryFrame(data)
}
