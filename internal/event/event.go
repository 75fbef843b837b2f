// Package event defines the typed context events that flow through the SCI
// infrastructure.
//
// Section 3.1 of the paper: "A CE allows its entity to communicate by means
// of producing and consuming typed events." Every piece of contextual
// information — a door sighting, an interpreted position, a path, a printer
// status change, an arrival announcement — is an Event carrying a context
// type (internal/ctxtype), the GUID of the producing entity, a timestamp,
// a monotone per-producer sequence number, and a JSON-object payload.
package event

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/guid"
)

// Event is one typed context observation. Events are immutable once
// published: consumers must not modify the payload map, nor the events of
// a batch slice they are handed. Batch paths share one slice between the
// bus, every subscriber ring and the fabric's relays, and read it in place.
type Event struct {
	// ID uniquely names this event instance.
	ID guid.GUID `json:"id"`
	// Type is the context type of the payload.
	Type ctxtype.Type `json:"type"`
	// Source is the GUID of the producing Context Entity.
	Source guid.GUID `json:"source"`
	// Subject optionally names the entity the event is about (e.g. the
	// person sighted at a door), as distinct from the sensor producing it.
	Subject guid.GUID `json:"subject,omitzero"`
	// Range is the GUID of the Range within which the event was produced.
	Range guid.GUID `json:"range,omitzero"`
	// Seq is the producer's monotone sequence number, used by consumers to
	// detect gaps after configuration repair (experiment E8).
	Seq uint64 `json:"seq"`
	// Time is the production instant.
	Time time.Time `json:"time"`
	// Quality grades the observation in (0,1]; 0 means unspecified.
	Quality float64 `json:"quality,omitempty"`
	// Payload is the typed content. Keys are type-specific; see the payload
	// helper constructors in this package and in internal/sensor.
	Payload map[string]any `json:"payload,omitempty"`
}

// ErrBadEvent reports a structurally invalid event.
var ErrBadEvent = errors.New("event: invalid")

// New constructs an event with a fresh GUID and the given fields.
func New(t ctxtype.Type, source guid.GUID, seq uint64, at time.Time, payload map[string]any) Event {
	return Event{
		ID:      guid.New(guid.KindEvent),
		Type:    t,
		Source:  source,
		Seq:     seq,
		Time:    at,
		Payload: payload,
	}
}

// Validate checks structural invariants: a usable ID, a well-formed type and
// a non-nil source.
func (e Event) Validate() error {
	if e.ID.IsNil() {
		return fmt.Errorf("%w: nil id", ErrBadEvent)
	}
	if err := e.Type.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadEvent, err)
	}
	if e.Type == ctxtype.Wildcard {
		return fmt.Errorf("%w: wildcard type on concrete event", ErrBadEvent)
	}
	if e.Source.IsNil() {
		return fmt.Errorf("%w: nil source", ErrBadEvent)
	}
	return nil
}

// ValidateBatch validates a batch in place, in order, with Validate's
// checks. It returns the index of the first invalid event and Validate's
// error for it, or len(evs) and nil when every event is valid. The type's
// syntax is checked only where it differs from the previous event's, so a
// run of one type pays for it once; the ID, wildcard and source checks run
// for every event.
func ValidateBatch(evs []Event) (int, error) {
	for i := range evs {
		e := &evs[i]
		newType := i == 0 || e.Type != evs[i-1].Type
		if e.ID.IsNil() || e.Type == ctxtype.Wildcard || e.Source.IsNil() ||
			newType && e.Type.Validate() != nil {
			return i, e.Validate()
		}
	}
	return len(evs), nil
}

// WithSubject returns a copy of e with the subject set.
func (e Event) WithSubject(s guid.GUID) Event {
	e.Subject = s
	return e
}

// WithRange returns a copy of e with the range set.
func (e Event) WithRange(r guid.GUID) Event {
	e.Range = r
	return e
}

// WithQuality returns a copy of e with the quality score set.
func (e Event) WithQuality(q float64) Event {
	e.Quality = q
	return e
}

// String renders a compact log form.
func (e Event) String() string {
	return fmt.Sprintf("event{%s from %s seq=%d}", e.Type, e.Source.Short(), e.Seq)
}

// Encode marshals the event to JSON.
func (e Event) Encode() ([]byte, error) {
	return json.Marshal(e)
}

// Decode unmarshals an event from JSON and validates it.
func Decode(data []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return Event{}, fmt.Errorf("event: decode: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Float extracts a numeric payload field, accepting the float64 that
// encoding/json produces as well as native ints from in-process events.
func (e Event) Float(key string) (float64, bool) {
	switch v := e.Payload[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

// Str extracts a string payload field.
func (e Event) Str(key string) (string, bool) {
	s, ok := e.Payload[key].(string)
	return s, ok
}

// GUIDField extracts a GUID payload field stored in canonical text form.
func (e Event) GUIDField(key string) (guid.GUID, bool) {
	s, ok := e.Payload[key].(string)
	if !ok {
		return guid.Nil, false
	}
	g, err := guid.Parse(s)
	return g, err == nil
}

// Filter selects events. The zero Filter matches everything.
type Filter struct {
	// Type, when non-empty, requires the event type to satisfy it (exact,
	// descendant, or registered equivalence when a Registry is supplied at
	// match time). Wildcard matches everything.
	Type ctxtype.Type `json:"type,omitempty"`
	// Source, when non-nil, requires an exact producing-entity match.
	Source guid.GUID `json:"source,omitzero"`
	// Subject, when non-nil, requires an exact subject match.
	Subject guid.GUID `json:"subject,omitzero"`
	// Range, when non-nil, requires the event's range to match.
	Range guid.GUID `json:"range,omitzero"`
	// MinQuality, when positive, requires event quality ≥ MinQuality.
	MinQuality float64 `json:"min_quality,omitempty"`
}

// Matches applies the filter using plain hierarchical type matching (no
// equivalence registry).
func (f Filter) Matches(e Event) bool {
	return f.MatchesIn(&e, nil)
}

// MatchesIn applies the filter; when reg is non-nil, type matching also
// accepts declared semantic equivalences. The event is read in place.
func (f Filter) MatchesIn(e *Event, reg *ctxtype.Registry) bool {
	if f.Type != "" && f.Type != ctxtype.Wildcard {
		ok := e.Type.HasAncestor(f.Type)
		if !ok && reg != nil {
			ok = reg.Satisfies(e.Type, f.Type)
		}
		if !ok {
			return false
		}
	}
	return f.MatchesRest(e)
}

// MatchesRest applies every constraint except the type. The dispatch index
// in internal/eventbus resolves the type constraint through its pattern
// index and calls MatchesRest for the remaining per-event checks, all of
// which are allocation-free comparisons.
func (f Filter) MatchesRest(e *Event) bool {
	if !f.Source.IsNil() && e.Source != f.Source {
		return false
	}
	if !f.Subject.IsNil() && e.Subject != f.Subject {
		return false
	}
	if !f.Range.IsNil() && e.Range != f.Range {
		return false
	}
	if f.MinQuality > 0 && e.Quality < f.MinQuality {
		return false
	}
	return true
}

// String renders the filter for logs.
func (f Filter) String() string {
	s := "filter{"
	if f.Type != "" {
		s += "type=" + string(f.Type)
	}
	if !f.Source.IsNil() {
		s += " src=" + f.Source.Short()
	}
	if !f.Subject.IsNil() {
		s += " subj=" + f.Subject.Short()
	}
	return s + "}"
}
