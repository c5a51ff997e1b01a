package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// refCacheState is format v6's cache section as it was first written:
// one Codec call per field, four per line. Cache.State packs a set per
// call; the stream must not be able to tell.
func refCacheState(c *Cache, s *snapshot.Codec) error {
	s.Section("cache.Cache")
	s.I64(&c.useTick)
	s.I64(&c.Hits)
	s.I64(&c.Misses)
	snapshot.Verify(s, len(c.sets), "sets", s.Int)
	snapshot.Verify(s, c.cfg.Ways, "ways", s.Int)
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			s.U64(&l.tag)
			s.Bool(&l.valid)
			s.Bool(&l.dirty)
			s.I64(&l.lastUse)
		}
	}
	return s.End()
}

var snapHierarchy = HierarchyConfig{
	L1I:        Config{SizeKB: 1, Ways: 2, LineBytes: 64, Latency: 1},
	L1D:        Config{SizeKB: 1, Ways: 4, LineBytes: 64, Latency: 1},
	L2:         Config{SizeKB: 4, Ways: 8, LineBytes: 64, Latency: 4},
	MSHRs:      4,
	WBQueueCap: 64,
}

// populated is a three-level hierarchy after random traffic: valid and
// invalid, clean and dirty lines at every level.
func populated(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(snapHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		class := []AccessClass{ClassLoad, ClassStore, ClassIFetch}[rng.Intn(3)]
		if r := h.Access(class, uint64(rng.Intn(256))); !r.Hit && !r.NACK && !r.Merged {
			h.NextFetch()
			h.FetchAccepted()
			h.Fill(r.Token)
		}
	}
	// That much traffic fills every level; empty some ways again.
	for _, c := range h.levels() {
		for i := 0; i < len(c.sets); i += 3 {
			c.sets[i][i%c.cfg.Ways] = line{}
		}
	}
	return h
}

func (h *Hierarchy) levels() []*Cache { return []*Cache{h.l1i, h.l1d, h.l2} }

func encodeWith(t *testing.T, state func(*snapshot.Codec) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := snapshot.NewEncoder(&buf)
	if err := state(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeWith(t *testing.T, b []byte, state func(*snapshot.Codec) error) error {
	t.Helper()
	s, err := snapshot.NewDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return state(s)
}

// TestCacheStateIsFormatV6 holds the per-set block visitor to the
// per-field layout it replaced: equal bytes out, and each side decodes
// what the other wrote. v7 and v8 left a cache level's section alone, so
// its layout is still v6's.
func TestCacheStateIsFormatV6(t *testing.T) {
	if snapshot.Version != 8 {
		t.Fatalf("snapshot.Version = %d: this test pins v6's cache layout as v8 carries it", snapshot.Version)
	}
	h, fresh := populated(t), func() *Hierarchy {
		h, _ := NewHierarchy(snapHierarchy)
		return h
	}
	for i, c := range h.levels() {
		var valid, dirty int
		for _, set := range c.sets {
			for _, l := range set {
				if l.valid {
					valid++
				}
				if l.dirty {
					dirty++
				}
			}
		}
		if lines := len(c.sets) * c.cfg.Ways; valid == 0 || valid == lines || (i > 0 && dirty == 0) {
			t.Fatalf("level %d: %d valid, %d dirty of %d lines; the traffic should leave a mix", i, valid, dirty, lines)
		}
		got := encodeWith(t, c.State)
		want := encodeWith(t, func(s *snapshot.Codec) error { return refCacheState(c, s) })
		if !bytes.Equal(got, want) {
			t.Fatalf("level %d: block visitor wrote %d bytes, per-field reference %d, and they differ", i, len(got), len(want))
		}
		a, b := fresh().levels()[i], fresh().levels()[i]
		if err := decodeWith(t, want, a.State); err != nil {
			t.Fatalf("level %d: block visitor reading the reference's bytes: %v", i, err)
		}
		if err := decodeWith(t, got, func(s *snapshot.Codec) error { return refCacheState(b, s) }); err != nil {
			t.Fatalf("level %d: reference reading the block visitor's bytes: %v", i, err)
		}
		if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
			t.Fatalf("level %d: decoded cache differs from the one encoded", i)
		}
	}
	whole := encodeWith(t, h.State)
	h2 := fresh()
	if err := decodeWith(t, whole, h2.State); err != nil {
		t.Fatal(err)
	}
	if again := encodeWith(t, h2.State); !bytes.Equal(again, whole) {
		t.Fatal("hierarchy does not re-encode to the bytes it was decoded from")
	}
}

// TestCacheStateHostileBlock: a set arrives as one block, and what is in
// it is still checked — a bool byte that is not 0 or 1, and a block cut
// short, fail with the errors the per-field decoder gave.
func TestCacheStateHostileBlock(t *testing.T) {
	c := populated(t).l2
	full := encodeWith(t, c.State)
	// Header, section marker, three counters, sets, ways; then the lines.
	lines := len(full) - len(c.sets)*c.cfg.Ways*lineBytes
	decode := func(b []byte) error {
		fresh, _ := New(c.cfg)
		return decodeWith(t, b, fresh.State)
	}
	for _, at := range []int{8, 9} { // a line's valid byte, its dirty byte
		bad := append([]byte(nil), full...)
		bad[lines+(c.cfg.Ways+3)*lineBytes+at] = 2 // second set, fourth line
		err := decode(bad)
		if err == nil || !strings.Contains(err.Error(), "cache.Cache: invalid bool byte 0x2") {
			t.Errorf("bool byte 2 at line offset %d: %v", at, err)
		}
	}
	for _, cut := range []int{lines + 1, lines + c.cfg.Ways*lineBytes + 7, len(full) - 1} {
		err := decode(full[:cut])
		if err == nil || !strings.Contains(err.Error(), "cache.Cache: truncated stream") {
			t.Errorf("stream cut at %d of %d: %v", cut, len(full), err)
		}
	}
}
