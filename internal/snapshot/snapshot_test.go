package snapshot

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// everything holds one field per visitor. state is its State method in
// miniature: the same function encodes and decodes it.
type everything struct {
	U8     uint8
	U32    uint32
	U64    uint64
	I64    int64
	Int    int
	I32    int32
	T, F   bool
	Pi     float64
	NegInf float64
	Str    string
	Empty  string
	Name   string

	I64s  []int64 // fixed length
	U64s  []uint64
	Ints  []int
	Bools []bool
	F64s  []float64
	Pairs [][2]int64 // Fixed with a struct visitor

	Queue  []uint64 // variable length
	Nested [][]int32
	NilVar []int64
	ByName map[string]int64
	ByID   map[uint64]float64
	NoKeys map[string]int64

	Ring      []int64
	RingStart int

	N int // bare count header
}

func (v *everything) state(s *Codec) error {
	s.Section("test.everything")
	s.U8(&v.U8)
	s.u32(&v.U32)
	s.U64(&v.U64)
	s.I64(&v.I64)
	s.Int(&v.Int)
	s.I32(&v.I32)
	s.Bool(&v.T)
	s.Bool(&v.F)
	s.F64(&v.Pi)
	s.F64(&v.NegInf)
	s.String(&v.Str, 16)
	s.String(&v.Empty, 16)
	s.Name(&v.Name)
	s.I64s(v.I64s)
	s.U64s(v.U64s)
	s.Ints(v.Ints)
	s.Bools(v.Bools)
	s.F64s(v.F64s)
	Fixed(s, v.Pairs, func(p *[2]int64) {
		s.I64(&p[0])
		s.I64(&p[1])
	})
	Slice(s, &v.Queue, 8, s.U64)
	Slice(s, &v.Nested, 4, func(in *[]int32) { Slice(s, in, 4, s.I32) })
	Slice(s, &v.NilVar, 8, s.I64)
	Map(s, &v.ByName, 8, s.Name, s.I64)
	Map(s, &v.ByID, 8, s.U64, s.F64)
	Map(s, &v.NoKeys, 8, s.Name, s.I64)
	Ring(s, &v.Ring, 5, &v.RingStart, s.I64)
	s.length(&v.N, 8)
	return s.End()
}

func sample() *everything {
	ring := []int64{30, 10, 20} // oldest at index 1
	return &everything{
		U8: 0xab, U32: 0xdeadbeef, U64: 1 << 60, I64: -42, Int: -7, I32: -3,
		T: true, Pi: math.Pi, NegInf: math.Inf(-1), Str: "hello", Name: "fq-vftf",
		I64s: []int64{1, -2, 3}, U64s: []uint64{9, 8}, Ints: []int{-1, 0, 1},
		Bools: []bool{true, false, true}, F64s: []float64{0.5, -0.25},
		Pairs:  [][2]int64{{1, 2}, {3, 4}},
		Queue:  []uint64{7, 6, 5},
		Nested: [][]int32{{1, -1}, nil, {2}},
		ByName: map[string]int64{"b": 2, "a": 1},
		ByID:   map[uint64]float64{9: 0.5, 3: 1.5},
		NoKeys: map[string]int64{},
		Ring:   ring, RingStart: 1,
		N: 3,
	}
}

// blank is a decode target "constructed with the same configuration":
// fixed-length slices are in place, contents are not.
func blank() *everything {
	return &everything{
		I64s: make([]int64, 3), U64s: make([]uint64, 2), Ints: make([]int, 3),
		Bools: make([]bool, 3), F64s: make([]float64, 2), Pairs: make([][2]int64, 2),
	}
}

func encode(t *testing.T, visit func(*Codec)) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewEncoder(&buf)
	if s.Loading() {
		t.Fatal("encoder reports Loading")
	}
	visit(s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decoder(t *testing.T, b []byte) *Codec {
	t.Helper()
	s, err := NewDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Loading() {
		t.Fatal("decoder does not report Loading")
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	b := encode(t, func(s *Codec) { want.state(s) })
	got := blank()
	if err := got.state(decoder(t, b)); err != nil {
		t.Fatal(err)
	}
	// The ring comes back normalised, oldest first.
	norm := sample()
	norm.Ring, norm.RingStart = []int64{10, 20, 30}, 0
	if !reflect.DeepEqual(got, norm) {
		t.Fatalf("round trip\n got: %+v\nwant: %+v", got, norm)
	}
	if got.NilVar != nil {
		t.Error("empty variable-length slice decoded non-nil")
	}
	// Content-based: the decoded value re-encodes to the same bytes.
	if again := encode(t, func(s *Codec) { got.state(s) }); !bytes.Equal(again, b) {
		t.Error("re-encoding the decoded value produced different bytes")
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := NewDecoder(strings.NewReader("NOTASNAP\x04\x00\x00\x00")); err == nil {
		t.Error("bad magic accepted")
	}
	b := encode(t, func(*Codec) {})
	b[len(Magic)] = 0xEE // corrupt the version field
	if _, err := NewDecoder(bytes.NewReader(b)); err == nil {
		t.Error("bad version accepted")
	}
}

// wantErr asserts the codec failed with an error naming every part.
func wantErr(t *testing.T, s *Codec, parts ...string) {
	t.Helper()
	err := s.Err()
	if err == nil {
		t.Fatalf("no error; want one naming %q", parts)
	}
	for _, p := range parts {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not name %q", err, p)
		}
	}
}

func TestLenCap(t *testing.T) {
	n := 100
	b := encode(t, func(s *Codec) { s.length(&n, 1000) })

	s := decoder(t, b)
	got := 5
	s.length(&got, 10)
	if got != 0 {
		t.Errorf("over-cap Len left %d", got)
	}
	wantErr(t, s, "exceeds cap 10")

	// An encoder refuses a count its own decoder would refuse.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.length(&n, 10)
	if e.Err() == nil {
		t.Error("encoder wrote an over-cap length")
	}
}

// TestCapsRefuseBeforeAllocating: a hostile count header must cost
// nothing — over the cap it is refused outright, and under the cap the
// target grows only with the elements that actually arrive.
func TestCapsRefuseBeforeAllocating(t *testing.T) {
	huge := MaxSlice
	hdr := encode(t, func(s *Codec) { s.length(&huge, MaxSlice) })

	s := decoder(t, hdr)
	var q []uint64
	Slice(s, &q, 16, s.U64)
	wantErr(t, s, "exceeds cap 16")
	if q != nil {
		t.Errorf("over-cap Slice allocated %d elements", cap(q))
	}

	s = decoder(t, hdr) // within the cap, but the elements are missing
	Slice(s, &q, MaxSlice, s.U64)
	wantErr(t, s, "truncated")
	if cap(q) > 1 {
		t.Errorf("Slice allocated %d elements from a bare header", cap(q))
	}

	s = decoder(t, hdr)
	var m map[uint64]int64
	Map(s, &m, MaxSlice, s.U64, s.I64)
	wantErr(t, s, "truncated")
	if len(m) != 0 {
		t.Errorf("Map holds %d entries from a bare header", len(m))
	}

	s = decoder(t, hdr)
	m = nil
	Map(s, &m, 16, s.U64, s.I64)
	wantErr(t, s, "exceeds cap 16")
	if m != nil {
		t.Error("over-cap Map allocated")
	}

	// A ring as large as its capacity allows, with no elements behind
	// the header: it grows with what arrives, not to the count.
	ringHdr := encode(t, func(s *Codec) {
		capacity := MaxSlice
		s.Int(&capacity)
		s.length(&huge, MaxSlice)
	})
	s = decoder(t, ringHdr)
	var r []uint64
	start := 0
	Ring(s, &r, MaxSlice, &start, s.U64)
	wantErr(t, s, "truncated")
	if cap(r) > 1 {
		t.Errorf("Ring allocated %d elements from a bare header", cap(r))
	}
}

func TestStringCap(t *testing.T) {
	long := strings.Repeat("x", 64)
	b := encode(t, func(s *Codec) { s.String(&long, 64) })
	s := decoder(t, b)
	got := "untouched"
	s.String(&got, 8)
	if got != "untouched" {
		t.Errorf("over-cap String stored %q", got)
	}
	wantErr(t, s, "exceeds cap 8")
}

func TestSectionMismatch(t *testing.T) {
	b := encode(t, func(s *Codec) { s.Section("alpha") })
	s := decoder(t, b)
	s.Section("beta")
	wantErr(t, s, "alpha", "beta")
}

// TestFixedLengthMismatch: a fixed-length visitor refuses a stream
// whose length differs from the constructed target's, names the
// section, and leaves the target alone.
func TestFixedLengthMismatch(t *testing.T) {
	b := encode(t, func(s *Codec) {
		s.Section("dram.Channel")
		s.I64s([]int64{1, 2, 3, 4})
	})
	s := decoder(t, b)
	s.Section("dram.Channel")
	target := []int64{7, 7}
	s.I64s(target)
	wantErr(t, s, "dram.Channel", "slice length", "4", "2")
	if target[0] != 7 || target[1] != 7 {
		t.Errorf("mismatched fixed-length visit wrote %v", target)
	}
}

// TestVerifyMismatch: construction state is compared, never stored,
// and the error names the innermost open section — including after a
// nested section has closed.
func TestVerifyMismatch(t *testing.T) {
	b := encode(t, func(s *Codec) {
		s.Section("outer")
		s.Section("inner")
		s.End()
		Verify(s, 16, "banks", s.Int)
		Verify(s, "FR-VFTF", "policy", s.Name)
		s.End()
	})
	s := decoder(t, b)
	s.Section("outer")
	s.Section("inner")
	s.End()
	Verify(s, 16, "banks", s.Int)
	if s.Err() != nil {
		t.Fatalf("matching Verify failed: %v", s.Err())
	}
	Verify(s, "FR-VSTF", "policy", s.Name)
	wantErr(t, s, "outer:", "policy", "FR-VFTF", "FR-VSTF")
	if strings.Contains(s.Err().Error(), "inner") {
		t.Errorf("error %q names a section that had closed", s.Err())
	}
}

func TestInvalidBool(t *testing.T) {
	two := uint8(2)
	b := encode(t, func(s *Codec) { s.U8(&two) })
	s := decoder(t, b)
	v := true
	s.Bool(&v)
	wantErr(t, s, "invalid bool")
	if !v {
		t.Error("invalid bool byte overwrote the target")
	}
}

// TestBlock: a block is its bytes and nothing else on the stream — no
// length header — fills in place on decode, and a short stream is the
// ordinary truncation error.
func TestBlock(t *testing.T) {
	want := []byte{1, 2, 3, 4, 5, 6, 7}
	a, z := uint8(0xaa), uint8(0x55)
	b := encode(t, func(s *Codec) { s.U8(&a); s.Block(want); s.U8(&z) })
	if header := len(Magic) + 4; !bytes.Equal(b[header:], append(append([]byte{a}, want...), z)) {
		t.Fatalf("stream after the header = %x", b[header:])
	}
	got := make([]byte, len(want))
	s := decoder(t, b)
	var a2, z2 uint8
	s.U8(&a2)
	s.Block(got)
	s.U8(&z2)
	if s.Err() != nil || !bytes.Equal(got, want) || a2 != a || z2 != z {
		t.Fatalf("decoded %x between %#x and %#x: %v", got, a2, z2, s.Err())
	}
	s = decoder(t, b[:len(b)-3])
	s.U8(&a2)
	s.Block(got)
	wantErr(t, s, "truncated stream")
}

// TestReadAheadWindow decodes through a reader that yields one byte per
// Read, and across a Block wider than the decoder's window: every visit
// refills the window, and the bytes still come back whole.
func TestReadAheadWindow(t *testing.T) {
	want := sample()
	b := encode(t, func(s *Codec) { want.state(s) })
	s, err := NewDecoder(iotest.OneByteReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatal(err)
	}
	got := blank()
	if err := got.state(s); err != nil {
		t.Fatal(err)
	}
	if again := encode(t, func(s *Codec) { got.state(s) }); !bytes.Equal(again, b) {
		t.Error("a one-byte reader decoded a different value")
	}

	wide := make([]byte, 3*readAhead+5)
	for i := range wide {
		wide[i] = byte(i * 7)
	}
	u := uint64(1<<63 + 9)
	b = encode(t, func(s *Codec) { s.U64(&u); s.Block(wide); s.U64(&u) })
	for _, r := range []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b))} {
		s, err := NewDecoder(r)
		if err != nil {
			t.Fatal(err)
		}
		got, u1, u2 := make([]byte, len(wide)), uint64(0), uint64(0)
		s.U64(&u1)
		s.Block(got)
		s.U64(&u2)
		if s.Err() != nil || !bytes.Equal(got, wide) || u1 != u || u2 != u {
			t.Fatalf("decoded %#x, %#x and a block equal %v: %v", u1, u2, bytes.Equal(got, wide), s.Err())
		}
	}
}

func TestTruncation(t *testing.T) {
	want := sample()
	full := encode(t, func(s *Codec) { want.state(s) })
	for cut := 0; cut < len(full); cut++ {
		s, err := NewDecoder(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		if blank().state(s) == nil {
			t.Fatalf("truncation at %d/%d went unnoticed", cut, len(full))
		}
	}
}

// TestStickyError: the first error wins in both directions, and every
// later visit is a no-op that leaves its target untouched.
func TestStickyError(t *testing.T) {
	s := decoder(t, encode(t, func(*Codec) {}))
	u := uint64(11)
	s.U64(&u) // past EOF
	first := s.Err()
	if first == nil {
		t.Fatal("read past EOF did not error")
	}
	str, fixed, n := "keep", []int64{5}, 9
	s.U64(&u)
	s.String(&str, 8)
	s.I64s(fixed)
	s.Section("later")
	s.Fail("second failure")
	s.length(&n, 100)
	if s.Err() != first {
		t.Error("decoder error was not sticky")
	}
	if u != 11 || str != "keep" || fixed[0] != 5 {
		t.Errorf("visits after an error wrote their targets: %d %q %v", u, str, fixed)
	}
	if n != 0 {
		t.Errorf("failed Len left %d; loops over it would run", n)
	}

	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Section("enc")
	e.Fail("first: %d", 1)
	first = e.Err()
	before := buf.Len()
	e.U64(&u)
	e.Fail("second")
	if e.Err() != first || e.Flush() != first {
		t.Error("encoder error was not sticky")
	}
	if buf.Len() != before {
		t.Error("encoder wrote after failing")
	}
}

func TestEncoderFail(t *testing.T) {
	var buf bytes.Buffer
	s := NewEncoder(&buf)
	s.Section("cpu.Core")
	s.Fail("deliberate: %d", 7)
	wantErr(t, s, "cpu.Core", "deliberate: 7")
	if err := s.Flush(); err == nil {
		t.Error("Flush ignored the failure")
	}
}

func TestNegativeLen(t *testing.T) {
	var buf bytes.Buffer
	s := NewEncoder(&buf)
	n := -1
	s.length(&n, 10)
	if s.Err() == nil {
		t.Error("negative Len accepted")
	}
}
