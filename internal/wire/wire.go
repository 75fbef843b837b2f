// The paper's hybrid communication model (Section 4) pairs distributed
// events with point-to-point messages. This file is the point-to-point
// half's envelope: a Message addressed by GUIDs (never by network
// addresses, per Section 3's overlay premise) with a JSON body. Framing and
// the encoding live in codec.go/binary.go; the full wire contract is in
// doc.go.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"sci/internal/guid"
)

// MaxFrame bounds a single message (16 MiB) to protect readers from
// corrupted or hostile length prefixes.
const MaxFrame = 16 << 20

// Kind discriminates message purposes.
type Kind string

// Message kinds. Request kinds have a matching response kind; one-way kinds
// carry no correlation.
const (
	// Discovery / registration (Fig 5 sequence).
	KindAnnounce      Kind = "announce"       // RS → new entity: here is the Registrar
	KindRegister      Kind = "register"       // entity → Registrar
	KindRegisterAck   Kind = "register_ack"   // Registrar → entity: CS / Mediator handles
	KindDeregister    Kind = "deregister"     // entity → Registrar
	KindDeregisterAck Kind = "deregister_ack" //
	KindHeartbeat     Kind = "heartbeat"      // lease renewal / liveness

	// Queries (Fig 6).
	KindQuery       Kind = "query"        // CAA → CS
	KindQueryResult Kind = "query_result" // CS → CAA
	KindQueryError  Kind = "query_error"  //

	// Events crossing range boundaries. KindEventBatch carries one or more
	// events in Message.Batch. KindEventBatchAck flows the other way: the
	// receiver of an event.batch reports its flow credit (BatchCredit) so
	// the sending coalescer can throttle.
	KindEventBatch    Kind = "event.batch"
	KindEventBatchAck Kind = "event.batch_ack"

	// Advertisement (service) calls.
	KindServiceCall  Kind = "service_call"
	KindServiceReply Kind = "service_reply"

	// Overlay maintenance (SCINET).
	KindOverlayJoin      Kind = "overlay_join"
	KindOverlayJoinReply Kind = "overlay_join_reply"
	KindOverlayPing      Kind = "overlay_ping"
	KindOverlayPong      Kind = "overlay_pong"
	KindOverlayRoute     Kind = "overlay_route" // encapsulated routed payload

	// Connection setup. A dialer opens each connection with a hello stating
	// its protocol version; the accept side answers once on the same socket
	// with its own.
	KindHello Kind = "hello"
)

// Message is the wire envelope. Payload semantics depend on Kind.
type Message struct {
	// Src and Dst are entity GUIDs, not network addresses.
	Src guid.GUID `json:"src"`
	Dst guid.GUID `json:"dst"`
	// Kind selects the handler.
	Kind Kind `json:"kind"`
	// Corr correlates a response with its request; zero for one-way traffic.
	Corr guid.GUID `json:"corr,omitzero"`
	// TTL bounds forwarding hops for routed messages; decremented per hop.
	TTL int `json:"ttl,omitempty"`
	// Body is the kind-specific JSON payload: the control half of the
	// message set. Events and their batch header travel in Batch, never
	// here.
	Body json.RawMessage `json:"body,omitempty"`
	// Batch carries the events of an event-bearing message, decoded. It
	// rides pointer-identical through the in-process memory transport and
	// as one contiguous dictionary-interned section of a binary frame.
	Batch *NativeBatch `json:"batch,omitempty"`
}

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadMessage    = errors.New("wire: malformed message")
)

// NewMessage builds a message with a marshalled body.
func NewMessage(src, dst guid.GUID, kind Kind, body any) (Message, error) {
	m := Message{Src: src, Dst: dst, Kind: kind}
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return Message{}, fmt.Errorf("wire: marshal body: %w", err)
		}
		m.Body = raw
	}
	return m, nil
}

// Reply builds a response to m with the correlation id carried over (or set
// to m's Corr if already present).
func (m Message) Reply(kind Kind, body any) (Message, error) {
	r, err := NewMessage(m.Dst, m.Src, kind, body)
	if err != nil {
		return Message{}, err
	}
	r.Corr = m.Corr
	return r, nil
}

// BatchCredit is a receiver's flow-control report: carried on a
// KindEventBatchAck reply (or piggybacked on a NativeBatch heading the
// other way) so the peer's outbound coalescer can match its flush rate to
// what the receiver absorbs.
type BatchCredit struct {
	// Events counts the frames of the batch being acknowledged (0 on pure
	// piggyback reports).
	Events int `json:"events,omitempty"`
	// Dropped is the receiver's cumulative count of events it has had to
	// discard (full delivery queues); senders throttle on its deltas.
	Dropped uint64 `json:"dropped"`
	// QueueFree is the receiver's remaining delivery-queue capacity;
	// negative means unknown (the receiver has no single bounded queue).
	QueueFree int `json:"queue_free"`
}

// NewEventBatchAck builds the credit reply to an event.batch message.
func NewEventBatchAck(src, dst guid.GUID, credit BatchCredit) (Message, error) {
	return NewMessage(src, dst, KindEventBatchAck, credit)
}

// BatchCreditInfo extracts the flow-credit report a message carries: the
// body of a KindEventBatchAck, or the credit piggybacked on a batch. ok is
// false when the message carries none.
func (m Message) BatchCreditInfo() (BatchCredit, bool) {
	if m.Batch != nil {
		if m.Batch.Credit == nil {
			return BatchCredit{}, false
		}
		return *m.Batch.Credit, true
	}
	if m.Kind != KindEventBatchAck {
		return BatchCredit{}, false
	}
	var c BatchCredit
	if err := m.DecodeBody(&c); err != nil {
		return BatchCredit{}, false
	}
	return c, true
}

// DecodeBody unmarshals the body into out.
func (m Message) DecodeBody(out any) error {
	if len(m.Body) == 0 {
		return fmt.Errorf("%w: empty body for %s", ErrBadMessage, m.Kind)
	}
	if err := json.Unmarshal(m.Body, out); err != nil {
		return fmt.Errorf("%w: body of %s: %v", ErrBadMessage, m.Kind, err)
	}
	return nil
}

// Validate checks the envelope.
func (m Message) Validate() error {
	if m.Kind == "" {
		return fmt.Errorf("%w: empty kind", ErrBadMessage)
	}
	if m.Src.IsNil() {
		return fmt.Errorf("%w: nil src", ErrBadMessage)
	}
	return nil
}

// String renders a compact log form.
func (m Message) String() string {
	return fmt.Sprintf("msg{%s %s→%s}", m.Kind, m.Src.Short(), m.Dst.Short())
}
