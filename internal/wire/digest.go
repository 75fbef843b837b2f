package wire

// Interest digests are the hierarchical counterpart of the flat interest
// table: a fabric summarizes the event-filter types of a whole subtree as a
// small fixed-cost structure — a set of coarsened ctxtype prefixes plus a
// Bloom filter over the full type strings — that a super-peer can merge,
// re-summarize and forward instead of re-gossiping every peer's full filter
// set. The contract is one-sided: a digest may claim to match types nobody
// below it asked for (false positives are tolerated and counted as
// spillover by the routing layer), but it must never deny a type somebody
// did ask for. Both membership structures only ever over-approximate —
// prefixes coarsen, Bloom bits collide, overflow degrades to a wildcard —
// so the no-false-negative property holds by construction.
//
// The Bloom geometry is fixed (DigestBloomBits, DigestBloomHashes) so that
// merging two digests is a plain bitwise OR: digests from different fabrics
// and different fleet generations always union soundly.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

const (
	// digestMagic opens every binary interest digest. Distinct from the
	// batch codec's magic so the two framings can never be confused.
	digestMagic   = 0xD6
	digestVersion = 1

	// DigestBloomBits is the fixed Bloom filter width in bits. Fixed fleet
	// wide so OR-merging digests from any two fabrics is well-defined.
	// 2048 bits (256 bytes) keeps the false-positive rate under ~0.5% at
	// 150 distinct filter types (k=4).
	DigestBloomBits = 2048
	// DigestBloomHashes is the fixed number of Bloom probes per type.
	DigestBloomHashes = 4

	// DigestPrefixDepth caps coarsened type prefixes: "building.floor3.temp"
	// contributes the prefix "building.floor3". Coarse prefixes are the
	// cheap first gate (and the tap-demand surface); the Bloom filter over
	// full type strings is the second.
	DigestPrefixDepth = 2
	// DigestMaxPrefixes bounds the prefix set; a digest summarizing more
	// distinct prefixes degrades to a wildcard rather than growing without
	// bound or silently dropping entries (which would create a false
	// negative).
	DigestMaxPrefixes = 64
)

const digestBloomBytes = DigestBloomBits / 8

// Digest summarizes a set of event-filter types. The zero value matches
// nothing; AddType and MergeFrom only ever widen it. Not safe for
// concurrent mutation; the routing layer publishes immutable snapshots.
type Digest struct {
	// Gen is the announcer's generation for this digest: monotone per
	// announcing fabric, so receivers discard reordered (stale) updates.
	Gen uint64

	wildcard bool
	prefixes map[string]bool
	bloom    []byte
}

// NewDigest returns an empty digest at the given generation.
func NewDigest(gen uint64) *Digest {
	return &Digest{Gen: gen}
}

// CoarsenType truncates a dotted context type to DigestPrefixDepth
// segments — the coarsened prefix a digest stores and matches against.
func CoarsenType(t string) string {
	depth := 0
	for i := 0; i < len(t); i++ {
		if t[i] == '.' {
			depth++
			if depth == DigestPrefixDepth {
				return t[:i]
			}
		}
	}
	return t
}

// digestHash derives the two independent Bloom hash values for a type
// string (standard double hashing: probe i is h1 + i*h2).
func digestHash(t string) (h1, h2 uint64) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(t))
	sum := h.Sum64()
	return sum, (sum >> 33) | 1 // odd, so probes cycle the whole table
}

// AddType records one concrete filter type. An empty or wildcard type (or
// one overflowing the prefix bound) widens the digest to match everything.
func (d *Digest) AddType(t string) {
	if d.wildcard {
		return
	}
	if t == "" || t == "*" {
		d.SetWildcard()
		return
	}
	if d.prefixes == nil {
		d.prefixes = make(map[string]bool)
	}
	p := CoarsenType(t)
	if !d.prefixes[p] && len(d.prefixes) >= DigestMaxPrefixes {
		d.SetWildcard()
		return
	}
	d.prefixes[p] = true
	if d.bloom == nil {
		d.bloom = make([]byte, digestBloomBytes)
	}
	h1, h2 := digestHash(t)
	for i := 0; i < DigestBloomHashes; i++ {
		bit := (h1 + uint64(i)*h2) % DigestBloomBits
		d.bloom[bit/8] |= 1 << (bit % 8)
	}
}

// SetWildcard widens the digest to match every type (unbounded interest, or
// overflow past the prefix bound). The membership structures are dropped:
// a wildcard subsumes them.
func (d *Digest) SetWildcard() {
	d.wildcard = true
	d.prefixes = nil
	d.bloom = nil
}

// Wildcard reports whether the digest matches every type.
func (d *Digest) Wildcard() bool { return d.wildcard }

// Empty reports whether the digest matches nothing at all.
func (d *Digest) Empty() bool {
	return !d.wildcard && len(d.prefixes) == 0
}

// MergeFrom widens d to also match everything o matches. Sound for digests
// from any two announcers: the Bloom geometry is fixed, so the bit tables
// OR; prefix-set overflow degrades to a wildcard. Gen is untouched — the
// merged digest is the merger's to stamp.
func (d *Digest) MergeFrom(o *Digest) {
	if o == nil || d.wildcard {
		return
	}
	if o.wildcard {
		d.SetWildcard()
		return
	}
	for p := range o.prefixes {
		if d.prefixes == nil {
			d.prefixes = make(map[string]bool)
		}
		if !d.prefixes[p] && len(d.prefixes) >= DigestMaxPrefixes {
			d.SetWildcard()
			return
		}
		d.prefixes[p] = true
	}
	if o.bloom != nil {
		if d.bloom == nil {
			d.bloom = make([]byte, digestBloomBytes)
		}
		for i := range o.bloom {
			d.bloom[i] |= o.bloom[i]
		}
	}
}

// MightMatch reports whether the digest may cover the candidate filter
// type: the candidate's coarsened prefix must be present and the full
// string must hit the Bloom filter. False positives are possible (and
// tolerated by the routing layer); false negatives are not — a type that
// was ever added, or merged in, always answers true.
func (d *Digest) MightMatch(candidate string) bool {
	if d.wildcard {
		return true
	}
	if len(d.prefixes) == 0 || !d.prefixes[CoarsenType(candidate)] {
		return false
	}
	if d.bloom == nil {
		return false
	}
	h1, h2 := digestHash(candidate)
	for i := 0; i < DigestBloomHashes; i++ {
		bit := (h1 + uint64(i)*h2) % DigestBloomBits
		if d.bloom[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// Prefixes returns the coarsened prefixes, sorted (nil for a wildcard
// digest). The routing layer derives publisher-side tap demand from them.
func (d *Digest) Prefixes() []string {
	if len(d.prefixes) == 0 {
		return nil
	}
	out := make([]string, 0, len(d.prefixes))
	for p := range d.prefixes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two digests match the same type sets (generation
// excluded): the announce paths suppress re-sending an unchanged summary.
func (d *Digest) Equal(o *Digest) bool {
	if o == nil {
		return d == nil
	}
	if d == nil || d.wildcard != o.wildcard || len(d.prefixes) != len(o.prefixes) {
		return false
	}
	for p := range d.prefixes {
		if !o.prefixes[p] {
			return false
		}
	}
	// Bloom tables are nil or fixed-size; treat nil as all-zero.
	for i := 0; i < digestBloomBytes; i++ {
		var db, ob byte
		if d.bloom != nil {
			db = d.bloom[i]
		}
		if o.bloom != nil {
			ob = o.bloom[i]
		}
		if db != ob {
			return false
		}
	}
	return true
}

// Digest wire flags.
const (
	digestFlagWildcard = 1 << 0
	digestFlagBloom    = 1 << 1
)

// ErrDigestCodec reports a malformed binary digest.
var ErrDigestCodec = errors.New("wire: malformed interest digest")

// EncodeDigest renders the digest in the compact binary framing used on the
// scinet.digest message path (base64-embedded in the JSON envelope, like
// the batch codec's frames ride their transport):
//
//	magic(0xD6) version(0x01) flags(u8) gen(uvarint)
//	nprefixes(uvarint) { len(uvarint) bytes }*
//	[ bloom(DigestBloomBits/8 bytes) ]   (present iff flagBloom)
func EncodeDigest(d *Digest) []byte {
	var flags byte
	if d.wildcard {
		flags |= digestFlagWildcard
	}
	if d.bloom != nil {
		flags |= digestFlagBloom
	}
	size := 3 + binary.MaxVarintLen64 + 1
	prefixes := d.Prefixes()
	for _, p := range prefixes {
		size += binary.MaxVarintLen64 + len(p)
	}
	if d.bloom != nil {
		size += len(d.bloom)
	}
	b := make([]byte, 0, size)
	b = append(b, digestMagic, digestVersion, flags)
	b = binary.AppendUvarint(b, d.Gen)
	b = binary.AppendUvarint(b, uint64(len(prefixes)))
	for _, p := range prefixes {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	if d.bloom != nil {
		b = append(b, d.bloom...)
	}
	return b
}

// DecodeDigest parses a binary digest. Malformed input (truncation, bad
// magic, inconsistent flags, out-of-bound prefix sets) returns
// ErrDigestCodec rather than a partial digest: a partial digest could deny
// types its sender declared, and false negatives are the one failure this
// structure must never exhibit.
func DecodeDigest(b []byte) (*Digest, error) {
	if len(b) < 3 || b[0] != digestMagic {
		return nil, fmt.Errorf("%w: bad header", ErrDigestCodec)
	}
	if b[1] != digestVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrDigestCodec, b[1])
	}
	flags := b[2]
	rest := b[3:]
	gen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: gen", ErrDigestCodec)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > DigestMaxPrefixes {
		return nil, fmt.Errorf("%w: prefix count", ErrDigestCodec)
	}
	rest = rest[n:]
	d := &Digest{Gen: gen, wildcard: flags&digestFlagWildcard != 0}
	if count > 0 {
		d.prefixes = make(map[string]bool, count)
	}
	for i := uint64(0); i < count; i++ {
		plen, n := binary.Uvarint(rest)
		if n <= 0 || plen > uint64(len(rest)-n) {
			return nil, fmt.Errorf("%w: prefix length", ErrDigestCodec)
		}
		rest = rest[n:]
		p := string(rest[:plen])
		rest = rest[plen:]
		if strings.ContainsRune(p, 0) {
			return nil, fmt.Errorf("%w: prefix bytes", ErrDigestCodec)
		}
		d.prefixes[p] = true
	}
	if flags&digestFlagBloom != 0 {
		if len(rest) != digestBloomBytes {
			return nil, fmt.Errorf("%w: bloom size %d", ErrDigestCodec, len(rest))
		}
		d.bloom = append([]byte(nil), rest...)
	} else if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrDigestCodec)
	}
	if d.wildcard {
		// Canonicalize: a wildcard subsumes any carried membership state.
		d.prefixes, d.bloom = nil, nil
	} else if len(d.prefixes) > 0 && d.bloom == nil {
		return nil, fmt.Errorf("%w: prefixes without bloom", ErrDigestCodec)
	}
	return d, nil
}
