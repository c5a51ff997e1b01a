// Package snapshot implements the versioned binary encoding beneath
// the simulator's checkpoint/restore feature (sim.Checkpoint /
// sim.Restore). The format is a flat little-endian stream:
//
//	magic "FQMSSNAP" | u32 version | sections...
//
// Each section opens with its name as a length-prefixed string; every
// component writes its own section marker, so a decoder that drifts out
// of alignment fails immediately with a section-name mismatch instead
// of silently decoding garbage. The stream is self-describing down to
// the section level, but field layout within a section is fixed per
// version: a snapshot restores only into the same simulator version
// and an equivalent configuration (sim.Restore verifies the run's
// fingerprint before touching any component state, and each component
// verifies its own configuration).
//
// One Codec serves both directions. A component declares its
// checkpointed state once, in a State(*Codec) method that visits every
// field by pointer: the encoder writes the field, the decoder overwrites
// it in place. Adding a checkpointed field is one visitor line in the
// owning component's State method plus a Version bump. Steps that are
// not the same in both directions (rebuilding an index, re-linking
// pointers, normalising a ring) sit in the same method behind
// Loading().
//
// Decoding in place is safe because the only decode target is a system
// sim.Restore has just constructed and discards on any error: a
// half-loaded component is never observable.
//
// Hostile input is a first-class concern — snapshots cross process and
// machine boundaries. The decoder therefore never trusts a length
// header: fixed-length visitors demand the length the constructed
// component already has, and every variable-length visitor takes an
// explicit cap, fails when the header exceeds it, and grows its target
// only as elements actually arrive (the same defense trace.ReadTrace
// applies to its instruction-count header), so a bit-flipped count
// costs memory proportional to the bytes supplied, not an OOM. The
// Codec carries a sticky error: the first failure wins and every later
// visit is a cheap no-op that leaves its target untouched, letting
// State methods stay linear and check Err once.
package snapshot

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Magic opens every snapshot stream.
const Magic = "FQMSSNAP"

// Version is the current format version. Any change to a section's
// field layout must bump it; Restore refuses other versions.
//
// History: v2 added the policy-name frame to the memctrl policy-state
// block (guarding against cross-policy restores) and the audit layer's
// interval-policy tracking state. v3 added the DRAM occupant-identity
// fields, the interference-attribution tracker state in memctrl, the
// fairness monitor's per-epoch top-aggressor columns, and the
// Interference bit in the configuration fingerprint. v4 added the
// trace generator's attack-pattern cursor (the antagonist workloads).
// The move from hand-written SaveState/LoadState pairs to the
// bidirectional Codec kept the v4 layout byte for byte. v5 added the
// memory scheduler's quiet-bound wake list, its live cached policy keys
// and its scheduler-economy counters. v6 added one "picks live" bit per
// (bank, thread) transaction queue after each bank's requests. v7
// removed what counts or caches the simulator's own work: the cached
// keys, the "picks live" bits, the scheduler-economy counters and the
// per-thread NACK counts (a checkpoint records the machine, not how it
// was stepped). v8 removed the wake lists and the Strict bit, and each
// section verifies the machine configuration it owns. v9 removed the
// fairness monitor's section (fairness is computed from the epoch
// sampler's ring, the one series on the wire), the cached next epoch
// boundary and the sample capacity from the fingerprint. v10 writes each
// sampled epoch as its positional values instead of three name-to-value
// maps, carries each histogram's max with its cumulative counts, and
// drops the sampler's latest snapshot (Latest is rebuilt from both).
// v11 writes a cache level's lines as varints, an invalid line as one
// zero byte and a valid one as its tag and dirty bit and its age on the
// level's LRU clock, in place of 18 fixed bytes per line.
const Version = 11

// MaxSlice is the element cap for the few variable-length fields whose
// bound depends on run history rather than on a configured capacity
// (the writeback queue, the auditor's completion ledger). Their
// elements are 8 bytes, so a full-length section is 32 MB of stream —
// far above any real run, and the decoder allocates only as that
// stream is actually read.
const MaxSlice = 1 << 22

// MaxString caps decoded string lengths (section names, metric names,
// benchmark names are all short).
const MaxString = 1 << 10

// Codec encodes to or decodes from one snapshot stream. Exactly one of
// w and r is set.
type Codec struct {
	w        *bufio.Writer
	r        io.Reader
	rb       []byte // decoding: rb[ro:] is read from r but not yet visited
	ro       int
	err      error
	sections []string // open sections, innermost last; labels errors
	buf      [binary.MaxVarintLen64]byte
}

// readAhead is the decoder's read-ahead window; a visit reads its bytes
// in place.
const readAhead = 4 << 10

// NewEncoder returns a Codec that writes to w and has already emitted
// the stream header (magic and version).
func NewEncoder(w io.Writer) *Codec {
	s := &Codec{w: bufio.NewWriter(w)}
	s.header()
	return s
}

// NewDecoder returns a Codec that reads from r, after verifying the
// stream header. A magic or version mismatch is an immediate error.
func NewDecoder(r io.Reader) (*Codec, error) {
	s := &Codec{r: r}
	s.header()
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

func (s *Codec) header() {
	magic := []byte(Magic)
	s.raw(magic)
	if s.err == nil && string(magic) != Magic {
		s.Fail("bad magic %q", magic)
	}
	Verify(s, uint32(Version), "format version", s.u32)
}

// Loading reports the direction: true when decoding into the visited
// fields, false when encoding them.
func (s *Codec) Loading() bool { return s.r != nil }

// Err returns the first error encountered.
func (s *Codec) Err() error { return s.err }

// Fail records an error, labelled with the innermost open section (the
// first failure sticks) — for State methods that detect an
// unserializable state or an invalid decoded value.
func (s *Codec) Fail(format string, args ...any) {
	if s.err != nil {
		return
	}
	where := ""
	if n := len(s.sections); n > 0 {
		where = s.sections[n-1] + ": "
	}
	s.err = fmt.Errorf("snapshot: "+where+format, args...)
}

// Flush drains an encoder's buffer and returns the first error
// encountered.
func (s *Codec) Flush() error {
	if s.err == nil && s.w != nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// Section opens a named section: it visits the marker (encoders write
// it, decoders fail unless the stream carries the same name) and labels
// errors with the name until the matching End.
func (s *Codec) Section(name string) {
	s.sections = append(s.sections, name)
	Verify(s, name, "section marker", s.Name)
}

// End closes the innermost section and returns Err, so a State method
// ends with `return s.End()`.
func (s *Codec) End() error {
	if n := len(s.sections); n > 0 {
		s.sections = s.sections[:n-1]
	}
	return s.err
}

// raw visits len(p) bytes: encoders write p, decoders fill it.
func (s *Codec) raw(p []byte) {
	if s.r != nil {
		if b, ok := s.take(len(p)); ok {
			copy(p, b)
		}
		return
	}
	if s.err == nil {
		_, s.err = s.w.Write(p)
	}
}

// take consumes a decoder's next n bytes and returns them in place
// (valid until the next visit); ok is false once an error has stuck.
// Every decoding visit reads the stream through it. n is construction
// state or a capped length, never an unchecked header.
func (s *Codec) take(n int) ([]byte, bool) {
	if s.err != nil || n > len(s.rb)-s.ro && !s.fill(n) {
		return nil, false
	}
	s.ro += n
	return s.rb[s.ro-n : s.ro], true
}

// fill moves the unvisited bytes to the front of the window and reads
// until it holds at least n, widening the window for a longer visit.
func (s *Codec) fill(n int) bool {
	if s.err != nil {
		return false
	}
	rest := len(s.rb) - s.ro
	if cap(s.rb) < n {
		s.rb = append(make([]byte, 0, max(n, readAhead)), s.rb[s.ro:]...)
	} else {
		s.rb = s.rb[:copy(s.rb, s.rb[s.ro:])]
	}
	s.ro = 0
	got, err := io.ReadAtLeast(s.r, s.rb[rest:cap(s.rb)], n-rest)
	s.rb = s.rb[:rest+got]
	if err != nil {
		s.Fail("truncated stream: %w", err)
		return false
	}
	return true
}

// U8 visits one byte.
func (s *Codec) U8(v *uint8) {
	if s.r != nil {
		if b, ok := s.take(1); ok {
			*v = b[0]
		}
		return
	}
	s.buf[0] = *v
	s.raw(s.buf[:1])
}

// u32 visits a little-endian uint32 (the header and count fields).
func (s *Codec) u32(v *uint32) {
	if s.r != nil {
		if b, ok := s.take(4); ok {
			*v = binary.LittleEndian.Uint32(b)
		}
		return
	}
	binary.LittleEndian.PutUint32(s.buf[:4], *v)
	s.raw(s.buf[:4])
}

// U64 visits a little-endian uint64.
func (s *Codec) U64(v *uint64) {
	if s.r != nil {
		if b, ok := s.take(8); ok {
			*v = binary.LittleEndian.Uint64(b)
		}
		return
	}
	binary.LittleEndian.PutUint64(s.buf[:8], *v)
	s.raw(s.buf[:8])
}

// Uvarint visits a uint64 as encoding/binary's unsigned varint: one to
// binary.MaxVarintLen64 bytes, seven bits each, low bits first, so a
// small value costs one byte. Decoding reads at most that many bytes
// and fails on a varint that runs longer or overflows 64 bits.
func (s *Codec) Uvarint(v *uint64) {
	if s.r == nil {
		if s.err == nil {
			_, s.err = s.w.Write(binary.AppendUvarint(s.buf[:0], *v))
		}
		return
	}
	if s.err == nil && len(s.rb)-s.ro >= binary.MaxVarintLen64 {
		// The whole longest varint is in the window: decode in place.
		x, n := binary.Uvarint(s.rb[s.ro:])
		if n <= 0 {
			s.Fail("varint overflows 64 bits")
			return
		}
		s.ro += n
		*v = x
		return
	}
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, ok := s.take(1)
		if !ok {
			return
		}
		if i == binary.MaxVarintLen64-1 && b[0] > 1 {
			break
		}
		x |= uint64(b[0]&0x7f) << (7 * i)
		if b[0] < 0x80 {
			*v = x
			return
		}
	}
	s.Fail("varint overflows 64 bits")
}

// I64 visits an int64 (two's complement).
func (s *Codec) I64(v *int64) {
	u := uint64(*v)
	s.U64(&u)
	*v = int64(u)
}

// Int visits an int, as an int64.
func (s *Codec) Int(v *int) {
	u := uint64(*v)
	s.U64(&u)
	*v = int(u)
}

// I32 visits an int32, as an int64.
func (s *Codec) I32(v *int32) {
	u := uint64(*v)
	s.U64(&u)
	*v = int32(u)
}

// F64 visits a float64 by bit pattern (exact round trip, NaN included).
func (s *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	s.U64(&u)
	*v = math.Float64frombits(u)
}

// Bool visits a bool as one byte; decoding any byte other than 0 or 1
// is an error.
func (s *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	s.U8(&b)
	if b > 1 {
		s.Fail("invalid bool byte %#x", b)
		return
	}
	*v = b == 1
}

// length visits a u32 count header for a variable-length field. It fails
// before anything is allocated when the count exceeds max — in either
// direction, so a state that could not be restored is refused at
// checkpoint time. A failed length leaves *n zero so loops over it do not
// run.
func (s *Codec) length(n *int, max int) {
	if s.r == nil && (*n < 0 || *n > max) {
		s.Fail("length %d outside [0, %d]", *n, max)
	}
	u := uint32(*n)
	s.u32(&u)
	if s.err == nil && int64(u) > int64(max) {
		s.Fail("length %d exceeds cap %d", u, max)
	}
	*n = int(u)
	if s.err != nil {
		*n = 0
	}
}

// String visits a length-prefixed string of at most max bytes.
func (s *Codec) String(v *string, max int) {
	n := len(*v)
	s.length(&n, max)
	if s.err != nil {
		return
	}
	if s.r == nil {
		_, s.err = s.w.WriteString(*v)
		return
	}
	if b, ok := s.take(n); ok {
		*v = string(b)
	}
}

// Name visits a short identifier string (at most MaxString bytes).
func (s *Codec) Name(v *string) { s.String(v, MaxString) }

// Verify visits construction state — geometry, intervals, names,
// presence flags — that the decode target was already built with:
// encoders write want, decoders read the value and fail on mismatch
// without storing anything.
func Verify[T comparable](s *Codec, want T, what string, visit func(*T)) {
	got := want
	visit(&got)
	if s.err == nil && got != want {
		s.Fail("%s: snapshot has %v, this system has %v", what, got, want)
	}
}

// Fixed visits a slice whose length is construction state: the length
// is written as a u32 header, and decoding fails unless the stream's
// length equals len(v), then fills v in place.
func Fixed[T any](s *Codec, v []T, elem func(*T)) {
	Verify(s, uint32(len(v)), "slice length", s.u32)
	for i := 0; i < len(v) && s.err == nil; i++ {
		elem(&v[i])
	}
}

// I64s visits a fixed-length []int64 (see Fixed).
func (s *Codec) I64s(v []int64) { Fixed(s, v, s.I64) }

// U64s visits a fixed-length []uint64 (see Fixed).
func (s *Codec) U64s(v []uint64) { Fixed(s, v, s.U64) }

// Ints visits a fixed-length []int (see Fixed).
func (s *Codec) Ints(v []int) { Fixed(s, v, s.Int) }

// Bools visits a fixed-length []bool (see Fixed).
func (s *Codec) Bools(v []bool) { Fixed(s, v, s.Bool) }

// F64s visits a fixed-length []float64 (see Fixed).
func (s *Codec) F64s(v []float64) { Fixed(s, v, s.F64) }

// Slice visits a variable-length slice of at most max elements: a
// capped count header, then each element. Decoding truncates *v and
// appends one element at a time, reusing its capacity, so memory grows
// only with the stream actually read; a nil *v decoded from a zero
// count stays nil.
func Slice[T any](s *Codec, v *[]T, max int, elem func(*T)) {
	n := len(*v)
	s.length(&n, max)
	if s.err != nil {
		return
	}
	if s.r != nil {
		*v = (*v)[:0]
	}
	for i := 0; i < n && s.err == nil; i++ {
		if s.r != nil {
			var zero T
			*v = append(*v, zero)
		}
		elem(&(*v)[i])
	}
}

// mapPresize bounds how far a decoded map is pre-sized: the count
// header is untrusted, so it buys room for at most this many entries
// (a few KB) and larger maps grow as their entries arrive.
const mapPresize = 256

// Map visits a map of at most max entries in ascending key order, so
// equal maps encode to equal bytes. Decoding builds a fresh map one
// entry at a time, pre-sized by the count only up to mapPresize.
func Map[K cmp.Ordered, V any](s *Codec, m *map[K]V, max int, key func(*K), val func(*V)) {
	n := len(*m)
	s.length(&n, max)
	if s.err != nil {
		return
	}
	// One k and v for the whole walk: they escape through the visitor
	// calls, so declaring them per entry would allocate per entry.
	var k K
	var v, zero V
	if s.r != nil {
		*m = make(map[K]V, min(n, mapPresize))
		for i := 0; i < n; i++ {
			v = zero // a decoded value must not reuse the last one's slices
			key(&k)
			val(&v)
			if s.err != nil {
				return
			}
			(*m)[k] = v
		}
		return
	}
	keys := make([]K, 0, n)
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k = range keys {
		v = (*m)[k]
		key(&k)
		val(&v)
	}
}

// Ring visits a bounded ring buffer — *ring holds the retained
// elements (it grows on demand, so its cap says nothing), capacity is
// the construction-time bound, *start indexes the oldest — as the
// capacity (verified), a count, and the elements oldest-first, so the
// bytes do not depend on where the ring has wrapped. Decoding rebuilds
// the ring with the oldest at index 0, growing it as elements arrive
// (see Slice).
func Ring[T any](s *Codec, ring *[]T, capacity int, start *int, elem func(*T)) {
	Verify(s, capacity, "ring capacity", s.Int)
	if s.r != nil {
		*start = 0
		Slice(s, ring, capacity, elem)
		return
	}
	n := len(*ring)
	s.length(&n, capacity)
	for i := 0; i < n && s.err == nil; i++ {
		elem(&(*ring)[(*start+i)%n])
	}
}
