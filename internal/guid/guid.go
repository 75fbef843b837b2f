// Package guid implements the 128-bit globally unique identifiers that the
// SCI infrastructure uses in place of traditional network addressing.
//
// The paper (Section 3) premises the SCINET on an overlay network in which
// "entities ... communicate across many heterogeneous network types using
// GUIDs rather than traditional addressing schemes". Every entity — a Range's
// Context Server, a Context Entity, a Context Aware Application, a Context
// Utility — carries one GUID for its whole lifecycle.
//
// A GUID is 128 bits. The top byte encodes the entity Kind so that log lines
// and registrar dumps are self-describing; the remaining 120 bits are random.
// They come from math/rand/v2's runtime generator, a ChaCha8 stream per
// thread seeded from the operating system's entropy, so minting a GUID takes
// no lock and no system call (a configuration mints several per subscribe).
// It is not crypto/rand because a GUID names a thing and is no secret: no
// code in SCI uses one as a credential or a capability, and none should.
//
// The overlay (internal/overlay) routes on the hexadecimal digit string of
// the GUID using prefix distance, so this package also provides the digit,
// prefix and XOR-distance primitives the routing tables need.
package guid

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// Size is the number of bytes in a GUID.
const Size = 16

// Digits is the number of hexadecimal digits in a GUID's string form. The
// overlay's prefix routing resolves one digit per hop, so Digits is also the
// worst-case overlay hop count.
const Digits = Size * 2

// Kind classifies the entity a GUID names. It occupies the first byte of the
// identifier so that identifiers are self-describing in logs and registry
// dumps.
type Kind byte

// Entity kinds. They mirror the component taxonomy of the paper: the five
// entity classes of Section 3 (People, Software, Places, Devices, Artifacts),
// plus infrastructure components (Context Servers, Context Utilities, Context
// Aware Applications) and transient objects (queries, configurations,
// subscriptions, events).
const (
	KindUnknown Kind = iota
	KindPerson
	KindSoftware
	KindPlace
	KindDevice
	KindArtifact
	KindServer        // a Range's Context Server
	KindUtility       // a Context Utility (Registrar, Event Mediator, ...)
	KindApplication   // a Context Aware Application
	KindEntity        // a generic Context Entity
	KindQuery         // a query instance
	KindConfiguration // a resolved configuration (subscription graph)
	KindSubscription  // a single event subscription
	KindEvent         // an event instance
	KindRange         // a Range as a whole
	kindMax
)

var kindNames = [...]string{
	KindUnknown:       "unknown",
	KindPerson:        "person",
	KindSoftware:      "software",
	KindPlace:         "place",
	KindDevice:        "device",
	KindArtifact:      "artifact",
	KindServer:        "server",
	KindUtility:       "utility",
	KindApplication:   "application",
	KindEntity:        "entity",
	KindQuery:         "query",
	KindConfiguration: "configuration",
	KindSubscription:  "subscription",
	KindEvent:         "event",
	KindRange:         "range",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Valid reports whether k is a defined kind other than KindUnknown.
func (k Kind) Valid() bool { return k > KindUnknown && k < kindMax }

// GUID is a 128-bit identifier. The zero value is the nil GUID, which is
// never assigned to a live entity.
type GUID [Size]byte

// Nil is the zero GUID.
var Nil GUID

// ErrBadGUID is returned when parsing malformed identifier text.
var ErrBadGUID = errors.New("guid: malformed identifier")

// New returns a fresh random GUID of the given kind. Its 120 random bits
// are two draws from math/rand/v2's per-thread ChaCha8 stream, which the Go
// runtime seeds from OS entropy: safe for concurrent use, lock-free and
// free of system calls. The bits are unpredictable enough to keep GUIDs
// apart, not to keep them secret: never use a GUID as a credential.
func New(kind Kind) GUID {
	var g GUID
	binary.BigEndian.PutUint64(g[:8], rand.Uint64())
	binary.BigEndian.PutUint64(g[8:], rand.Uint64())
	g[0] = byte(kind)
	return g
}

// FromBytes builds a GUID from a 16-byte slice.
func FromBytes(b []byte) (GUID, error) {
	var g GUID
	if len(b) != Size {
		return Nil, fmt.Errorf("%w: need %d bytes, got %d", ErrBadGUID, Size, len(b))
	}
	copy(g[:], b)
	return g, nil
}

// Parse parses the canonical textual form produced by String:
// "kind:hex32". It also accepts a bare 32-digit hex string, in which case
// the kind byte is taken from the decoded bytes.
func Parse(s string) (GUID, error) {
	hexPart := s
	if i := strings.IndexByte(s, ':'); i >= 0 {
		hexPart = s[i+1:]
	}
	if len(hexPart) != Digits {
		return Nil, fmt.Errorf("%w: want %d hex digits, got %d", ErrBadGUID, Digits, len(hexPart))
	}
	b, err := hex.DecodeString(hexPart)
	if err != nil {
		return Nil, fmt.Errorf("%w: %v", ErrBadGUID, err)
	}
	return FromBytes(b)
}

// MustParse is Parse that panics on error; intended for tests and constants.
func MustParse(s string) GUID {
	g, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return g
}

// Kind returns the entity kind encoded in the identifier.
func (g GUID) Kind() Kind { return Kind(g[0]) }

// IsNil reports whether g is the zero GUID.
func (g GUID) IsNil() bool { return g == Nil }

// String renders the canonical "kind:hex" form.
func (g GUID) String() string {
	return g.Kind().String() + ":" + hex.EncodeToString(g[:])
}

// Short returns an abbreviated form ("kind:8hex…") for logs.
func (g GUID) Short() string {
	return g.Kind().String() + ":" + hex.EncodeToString(g[:4]) + "…"
}

// Hex returns the bare 32-digit hexadecimal string.
func (g GUID) Hex() string { return hex.EncodeToString(g[:]) }

// MarshalText implements encoding.TextMarshaler.
func (g GUID) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (g *GUID) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*g = parsed
	return nil
}

// Digit returns the i-th hexadecimal digit (0 ≤ i < Digits), most significant
// first. The overlay routing table is indexed by (prefix length, digit).
func (g GUID) Digit(i int) byte {
	b := g[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// CommonPrefixLen returns the number of leading hexadecimal digits g and o
// share. It is the overlay's routing metric: each hop strictly increases the
// shared prefix with the destination.
func CommonPrefixLen(g, o GUID) int {
	for i := 0; i < Size; i++ {
		x := g[i] ^ o[i]
		if x == 0 {
			continue
		}
		if x&0xf0 != 0 {
			return i * 2
		}
		return i*2 + 1
	}
	return Digits
}

// Compare orders GUIDs lexicographically by their bytes. It returns -1, 0 or
// +1. The leaf sets of the overlay are maintained in this circular order.
// Byte order is the order of the two big-endian 64-bit halves, so it
// compares two words instead of looping over sixteen bytes.
func Compare(a, b GUID) int {
	x, y := binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8])
	if x == y {
		x, y = binary.BigEndian.Uint64(a[8:]), binary.BigEndian.Uint64(b[8:])
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Less reports a < b in Compare order.
func Less(a, b GUID) bool { return Compare(a, b) < 0 }

// Distance fills dst with the XOR distance |a ^ b|. The magnitude ordering of
// XOR distances is what the overlay uses to pick the numerically closest
// node when no better prefix match exists.
func Distance(a, b GUID) GUID {
	var d GUID
	for i := 0; i < Size; i++ {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// CloserTo reports whether a is strictly closer to target than b is, in XOR
// distance.
func CloserTo(target, a, b GUID) bool {
	return Compare(Distance(target, a), Distance(target, b)) < 0
}

// Sub returns (a - b) mod 2^128, treating GUIDs as big-endian 128-bit
// unsigned integers. It is the primitive for ring (circular identifier
// space) distances used by the overlay's leaf sets.
func Sub(a, b GUID) GUID {
	var d GUID
	var borrow uint16
	for i := Size - 1; i >= 0; i-- {
		v := uint16(a[i]) - uint16(b[i]) - borrow
		d[i] = byte(v)
		borrow = (v >> 8) & 1
	}
	return d
}

// CWDist returns the clockwise distance from a to b on the identifier ring:
// (b - a) mod 2^128.
func CWDist(a, b GUID) GUID { return Sub(b, a) }

// RingDist returns the minimal circular distance between a and b:
// min((b-a) mod 2^128, (a-b) mod 2^128).
func RingDist(a, b GUID) GUID {
	cw := Sub(b, a)
	ccw := Sub(a, b)
	if Compare(cw, ccw) <= 0 {
		return cw
	}
	return ccw
}

// RingCloserTo reports whether a is strictly closer to target than b is, in
// minimal ring distance. The overlay's greedy forwarding uses this order:
// every hop strictly decreases ring distance, so routing terminates, and
// with accurate leaf sets it terminates at the live target.
func RingCloserTo(target, a, b GUID) bool {
	return Compare(RingDist(a, target), RingDist(b, target)) < 0
}

// Sort sorts the slice in ascending Compare order.
func Sort(gs []GUID) {
	sort.Slice(gs, func(i, j int) bool { return Less(gs[i], gs[j]) })
}

// Set is an unordered collection of GUIDs with O(1) membership.
type Set map[GUID]struct{}

// NewSet builds a Set from the given members.
func NewSet(gs ...GUID) Set {
	s := make(Set, len(gs))
	for _, g := range gs {
		s.Add(g)
	}
	return s
}

// Add inserts g.
func (s Set) Add(g GUID) { s[g] = struct{}{} }

// Remove deletes g.
func (s Set) Remove(g GUID) { delete(s, g) }

// Has reports membership.
func (s Set) Has(g GUID) bool {
	_, ok := s[g]
	return ok
}

// Members returns the members in sorted order (deterministic for tests).
func (s Set) Members() []GUID {
	out := make([]GUID, 0, len(s))
	for g := range s {
		out = append(out, g)
	}
	Sort(out)
	return out
}

// Sorted is an immutable set of GUIDs held strictly ascending in Compare
// order. NewSorted copies, sorts and deduplicates its input once; nothing
// can write the set afterwards, so a Sorted is shared by value without a
// copy and without re-checking its order: a resolver plan builds a
// consumer input's producers once, and the mediator's record and the bus's
// subscription keep that same set. The zero value is the empty set. Its
// JSON form is an array of GUIDs.
type Sorted struct {
	gs []GUID
}

// NewSorted returns the set of gs. It never retains gs: the caller may
// write it afterwards.
func NewSorted(gs ...GUID) Sorted {
	if len(gs) == 0 {
		return Sorted{}
	}
	out := slices.Clone(gs)
	if !strictlyAscending(out) {
		slices.SortFunc(out, Compare)
		out = slices.Compact(out)
	}
	return Sorted{gs: out}
}

// strictlyAscending reports whether gs is sorted with no duplicates.
func strictlyAscending(gs []GUID) bool {
	for i := 1; i < len(gs); i++ {
		if Compare(gs[i-1], gs[i]) >= 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s Sorted) Len() int { return len(s.gs) }

// At returns the i-th smallest member.
func (s Sorted) At(i int) GUID { return s.gs[i] }

// Has reports membership, without allocating. It inlines into its caller;
// the binary search is one call.
func (s Sorted) Has(g GUID) bool {
	i := s.search(g)
	return i < len(s.gs) && s.gs[i] == g
}

// search returns the index of the first member not less than g.
func (s Sorted) search(g GUID) int {
	i, j := 0, len(s.gs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if Less(s.gs[h], g) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Members returns a copy of the members, ascending.
func (s Sorted) Members() []GUID { return slices.Clone(s.gs) }

// MarshalJSON encodes the set as an array of GUIDs.
func (s Sorted) MarshalJSON() ([]byte, error) { return json.Marshal(s.gs) }

// UnmarshalJSON decodes an array of GUIDs into the set.
func (s *Sorted) UnmarshalJSON(b []byte) error {
	var gs []GUID
	if err := json.Unmarshal(b, &gs); err != nil {
		return err
	}
	*s = NewSorted(gs...)
	return nil
}
