package rangesvc

import (
	"sync/atomic"
	"time"

	"sci/internal/clock"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/metrics"
	"sci/internal/wire"
)

// endpoint is everything one side of the Range Service keeps about one
// remote peer: the deliveries bound for it (Host only), the flow-credit
// report owed to it, and the health of sends to it. A Host and a Connector
// run the same ack path through it — a report is noted per ingested
// message, rides the next event.batch to the peer when one beats the ack
// window, leaves as a standalone event.batch_ack otherwise, and is noted
// again when its carrier fails — and differ only in the credit they report.
//
// The report coalescing is flow.AckCoalescer's: the leading report and
// reports whose drop figure moved leave promptly (one per ack window even
// under a drop storm — the figure is cumulative, so one frame per window
// says everything), and redundant healthy reports ride the window timer or
// the next batch that can carry them.
//
// An endpoint's flow entry points and sends run without its owner's lock
// held, because its callbacks take that lock: the Host's send looks the
// endpoint up, and the Connector's credit reads its delivery queue.
type endpoint struct {
	// Coalescer batches the deliveries bound for the peer, and the peer's
	// credit reports throttle it (UpdateCredit). Nil on a Connector, which
	// sends no deliveries.
	*flow.Coalescer

	self, peer guid.GUID
	send       func(wire.Message) error
	// credit builds the report an ack to the peer carries; its Dropped is
	// the ack coalescer's urgency figure.
	credit func(events int) wire.BatchCredit
	acks   *flow.AckCoalescer // the credit report owed to the peer

	sent        *metrics.Counter // standalone acks shipped
	piggybacked *metrics.Counter // reports that rode an event.batch instead
	failing     atomic.Bool      // the last send to the peer failed (Host transition logging)
}

// newAcks builds the endpoint's ack coalescer: reports to the peer leave at
// most once per window.
func (e *endpoint) newAcks(clk clock.Clock, window time.Duration) *flow.AckCoalescer {
	return flow.NewAckCoalescer(flow.AckConfig{
		Clock:  clk,
		Window: window,
		Figure: func() uint64 { return e.credit(0).Dropped },
		Send:   e.sendAck,
	})
}

// sendAck ships one standalone event.batch_ack frame, reporting success.
func (e *endpoint) sendAck(events int) bool {
	ack, err := wire.NewEventBatchAck(e.self, e.peer, e.credit(events))
	if err != nil {
		return true // unencodable: dropping the report is all we can do
	}
	if e.send(ack) != nil {
		return false
	}
	e.sent.Inc()
	return true
}

// sendBatch ships events to the peer as one event.batch wire message. A
// pending credit report rides along (wire.NativeBatch.Credit) and spares
// its standalone ack frame; a report is never carried past its addressee,
// since each peer has its own endpoint. A claimed report whose carrier
// fails is noted again, so the ack window retries it.
func (e *endpoint) sendBatch(events []event.Event) error {
	var credit *wire.BatchCredit
	if n, ok := e.acks.Take(); ok {
		c := e.credit(n)
		credit = &c
	}
	m, err := wire.NewNativeEventBatch(e.self, e.peer, events, credit)
	if err == nil {
		err = e.send(m)
	}
	switch {
	case credit == nil:
	case err == nil:
		e.piggybacked.Inc()
	default:
		e.acks.Note(credit.Events)
	}
	return err
}

// close retires an endpoint its owner has dropped: no report to the peer
// leaves any more, and pending deliveries are flushed first when flush is
// set (the owner is closing) or dropped (the peer departed).
func (e *endpoint) close(flush bool) {
	e.acks.Stop()
	if e.Coalescer != nil {
		if flush {
			e.Flush()
		}
		e.Discard()
	}
}
