// Package batchfix is the batchshare fixture: mutating a NativeBatch that
// may have escaped must diagnose; the fresh-clone idiom must not.
package batchfix

import (
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/wire"
)

// stampRange rewrites events in place — the canonical violation: the batch
// arrived on a Message and may be shared with other receivers.
func stampRange(m wire.Message, e event.Event) {
	m.Batch.Events[0] = e                      // want `write through m\.Batch\.Events mutates a shared NativeBatch`
	m.Batch.Events[1].Seq = 7                  // want `write through m\.Batch\.Events mutates a shared NativeBatch`
	m.Batch.Events[2].Seq++                    // want `write through m\.Batch\.Events mutates a shared NativeBatch`
	m.Batch.Credit = nil                       // want `write through m\.Batch\.Credit mutates a shared NativeBatch`
	m.Batch.Events = append(m.Batch.Events, e) // want `write through m\.Batch\.Events mutates a shared NativeBatch` `append to m\.Batch\.Events may grow into a shared NativeBatch`
	_ = append(m.Batch.Events, e)              // want `append to m\.Batch\.Events may grow into a shared NativeBatch`
}

// restamp rewrites a received batch's header in place — as wrong as
// rewriting its events: relays must build a fresh batch instead.
func restamp(m wire.Message, g guid.GUID) {
	m.Batch.Origin = g                   // want `write through m\.Batch\.Origin mutates a shared NativeBatch`
	m.Batch.ID = g                       // want `write through m\.Batch\.ID mutates a shared NativeBatch`
	m.Batch.Query = g                    // want `write through m\.Batch\.Query mutates a shared NativeBatch`
	m.Batch.Via[0] = g                   // want `write through m\.Batch\.Via mutates a shared NativeBatch`
	m.Batch.Via = append(m.Batch.Via, g) // want `write through m\.Batch\.Via mutates a shared NativeBatch` `append to m\.Batch\.Via may grow into a shared NativeBatch`
	_ = append(m.Batch.Via[:1], g)       // want `append to m\.Batch\.Via may grow into a shared NativeBatch`
}

// reslice through a parameter batch is equally shared.
func truncate(nb *wire.NativeBatch) {
	nb.Events = nb.Events[:0] // want `write through nb\.Events mutates a shared NativeBatch`
}

// cloneAndFilter is the sanctioned copy-on-escape idiom: a freshly
// constructed batch is private until attached, so building it is clean.
func cloneAndFilter(m wire.Message, keep func(event.Event) bool) *wire.NativeBatch {
	out := &wire.NativeBatch{Events: make([]event.Event, 0, len(m.Batch.Events))}
	for _, e := range m.Batch.Events {
		if keep(e) {
			out.Events = append(out.Events, e)
		}
	}
	out.Credit = m.Batch.Credit
	return out
}

// relayCopy is the relay idiom: a fresh batch shares the received events
// and carries its own header, extended freely before it is attached.
func relayCopy(in *wire.NativeBatch, self guid.GUID) *wire.NativeBatch {
	out := &wire.NativeBatch{Events: in.Events, Origin: in.Origin, ID: in.ID}
	out.Via = append(out.Via, in.Via...)
	out.Via = append(out.Via, self)
	out.Query = in.Query
	return out
}

// zeroValueLocal is private local storage until it escapes.
func zeroValueLocal(events []event.Event) wire.NativeBatch {
	var nb wire.NativeBatch
	nb.Events = events
	return nb
}

// attach sets the Batch pointer itself — handing over a batch is the
// contract, not a violation of it.
func attach(m *wire.Message, nb *wire.NativeBatch) {
	m.Batch = nb
}

// reads never diagnose.
func reads(m wire.Message) int {
	n := 0
	for _, e := range m.Batch.Events {
		n += int(e.Seq)
	}
	for _, g := range m.Batch.Via {
		if g == m.Batch.Origin {
			n++
		}
	}
	dst := make([]event.Event, len(m.Batch.Events))
	copy(dst, m.Batch.Events)
	return n
}

// suppressed documents a reviewed exception.
func suppressed(nb *wire.NativeBatch) {
	nb.Credit = nil //lint:allow batchshare single-owner batch never attached to a message
}
