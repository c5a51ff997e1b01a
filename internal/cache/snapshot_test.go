package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

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
		for i := 0; i < c.cfg.Sets(); i += 3 {
			c.lines[i*c.cfg.Ways+i%c.cfg.Ways] = line{}
		}
	}
	return h
}

func (h *Hierarchy) levels() []*Cache { return []*Cache{h.l1i, h.l1d, h.l2} }

func freshHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(snapHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

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

// TestCacheStateRoundTrip: each level, and the whole hierarchy, decodes
// and re-encodes to the bytes it was read from; and a restored level
// answers 10k random Lookup, Access, Fill and Invalidate calls exactly
// as the original does, although the original's invalid lines carry
// junk tags, dirty bits and LRU stamps that the wire drops. That is the
// claim that an invalid line's fields are dead.
func TestCacheStateRoundTrip(t *testing.T) {
	h := populated(t)
	for i, c := range h.levels() {
		var valid, dirty int
		for _, l := range c.lines {
			if l.key&lineValid != 0 {
				valid++
				if l.key&lineDirty != 0 {
					dirty++
				}
			}
		}
		if valid == 0 || valid == len(c.lines) || (i > 0 && dirty == 0) {
			t.Fatalf("level %d: %d valid, %d dirty of %d lines; the traffic should leave a mix", i, valid, dirty, len(c.lines))
		}
		// Empty a quarter of the lines more, and give every invalid line
		// a junk tag and dirty bit and a recent-looking LRU stamp: code
		// that read them would pick different victims.
		rng := rand.New(rand.NewSource(int64(i)))
		for j := range c.lines {
			if l := &c.lines[j]; l.key&lineValid == 0 || rng.Intn(4) == 0 {
				*l = line{key: rng.Uint64() &^ lineValid, lastUse: c.useTick - rng.Int63n(4)}
			}
		}
		b := encodeWith(t, c.State)
		r := freshHierarchy(t).levels()[i]
		if err := decodeWith(t, b, r.State); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
		if again := encodeWith(t, r.State); !bytes.Equal(again, b) {
			t.Fatalf("level %d: restored cache encodes to %d bytes, read from %d, and they differ", i, len(again), len(b))
		}
		span := 4 * len(c.lines) // four times the capacity, so fills evict
		for op := 0; op < 10_000; op++ {
			a := uint64(rng.Intn(span))
			var got, want any
			switch k := rng.Intn(4); k {
			case 0:
				got, want = r.Lookup(a), c.Lookup(a)
			case 1:
				w := rng.Intn(2) == 0
				got, want = r.Access(a, w), c.Access(a, w)
			case 2:
				d := rng.Intn(2) == 0
				v1, vd1, e1 := r.Fill(a, d)
				v2, vd2, e2 := c.Fill(a, d)
				got, want = [3]any{v1, vd1, e1}, [3]any{v2, vd2, e2}
			case 3:
				d1, p1 := r.Invalidate(a)
				d2, p2 := c.Invalidate(a)
				got, want = [2]bool{d1, p1}, [2]bool{d2, p2}
			}
			if got != want {
				t.Fatalf("level %d, op %d on %#x: restored cache returned %v, original %v", i, op, a, got, want)
			}
		}
		if r.Hits != c.Hits || r.Misses != c.Misses || r.useTick != c.useTick {
			t.Fatalf("level %d: counters diverged", i)
		}
		if !bytes.Equal(encodeWith(t, r.State), encodeWith(t, c.State)) {
			t.Fatalf("level %d: the two caches checkpoint differently after the same calls", i)
		}
	}
	h = populated(t)
	whole := encodeWith(t, h.State)
	h2 := freshHierarchy(t)
	if err := decodeWith(t, whole, h2.State); err != nil {
		t.Fatal(err)
	}
	if again := encodeWith(t, h2.State); !bytes.Equal(again, whole) {
		t.Fatal("hierarchy does not re-encode to the bytes it was decoded from")
	}
	for i, c := range h2.levels() {
		if !reflect.DeepEqual(c, h.levels()[i]) {
			t.Fatalf("level %d: a cache whose invalid lines are zero does not decode to itself", i)
		}
	}
}

// TestCacheStateHostileBlock: each line is varints read from an
// untrusted stream; a varint cut short or too long, an age older than
// the LRU clock, a tag no line address has, one tag in two ways of a
// set, and a stream that ends early all fail with a cache.Cache error.
func TestCacheStateHostileBlock(t *testing.T) {
	c := populated(t).l2
	full := encodeWith(t, c.State)
	// Every way of an empty cache is one zero byte, so the lines of
	// full start where an empty cache's stop, less one byte per way.
	empty, _ := New(c.cfg)
	empty.useTick, empty.Hits, empty.Misses = c.useTick, c.Hits, c.Misses
	lines := len(encodeWith(t, empty.State)) - len(c.lines)
	// The first valid way whose age varint has more than one byte:
	// [at, end) is that varint.
	at, end := lines, 0
	for end == 0 && at < len(full) {
		v, n := binary.Uvarint(full[at:])
		at += n
		if v == 0 {
			continue
		}
		if _, m := binary.Uvarint(full[at:]); m > 1 {
			end = at + m
		} else {
			at += m
		}
	}
	if end == 0 {
		t.Fatal("no line has a multi-byte age")
	}
	splice := func(b []byte, from, to int, mid ...byte) []byte {
		return append(append(append([]byte(nil), b[:from]...), mid...), b[to:]...)
	}
	decode := func(b []byte) error {
		fresh, _ := New(c.cfg)
		return decodeWith(t, b, fresh.State)
	}
	withLine := func(set, way int, l line) []byte {
		bad, _ := New(c.cfg)
		copy(bad.lines, c.lines)
		bad.useTick, bad.Hits, bad.Misses = c.useTick, c.Hits, c.Misses
		bad.lines[set*c.cfg.Ways+way] = l
		return encodeWith(t, bad.State)
	}
	first := c.lines[1] // set 0, way 1: a valid line (populated empties way 0)
	if first.key&lineValid == 0 {
		t.Fatal("set 0 way 1 should hold a line")
	}
	for _, row := range []struct {
		name string
		b    []byte
		err  string
	}{
		{"varint cut short", full[:at+1], "truncated stream"},
		{"varint of eleven bytes", splice(full, at, end, append(bytes.Repeat([]byte{0x80}, 10), 0)...), "varint overflows 64 bits"},
		{"varint past 64 bits", splice(full, at, end, append(bytes.Repeat([]byte{0xff}, 9), 2)...), "varint overflows 64 bits"},
		{"age above the LRU clock", withLine(0, 1, line{key: first.key, lastUse: -1}), "line age"},
		{"tag wider than a line address", withLine(0, 1, line{key: 1<<63 | lineValid, lastUse: 1}), "wider than a line address"},
		{"one tag in two ways", withLine(0, 2, line{key: first.key | lineDirty, lastUse: 1}), "in two ways of one set"},
		{"stream ends in the first set", full[:lines+1], "truncated stream"},
		{"stream ends before the last set", full[:len(full)-c.cfg.Ways], "truncated stream"},
		{"stream ends inside the last line", full[:len(full)-1], "truncated stream"},
	} {
		err := decode(row.b)
		if err == nil || !strings.Contains(err.Error(), "cache.Cache: ") || !strings.Contains(err.Error(), row.err) {
			t.Errorf("%s: %v", row.name, err)
		}
	}
}
