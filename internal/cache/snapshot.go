package cache

import (
	"encoding/binary"

	"repro/internal/snapshot"
)

// State visits one cache level: the LRU clock, hit/miss counters, and
// every line's tag/valid/dirty/lastUse. Geometry (sets, ways) comes
// from the configuration the cache was constructed with and is only
// verified.
func (c *Cache) State(s *snapshot.Codec) error {
	s.Section("cache.Cache")
	s.I64(&c.useTick)
	s.I64(&c.Hits)
	s.I64(&c.Misses)
	snapshot.Verify(s, len(c.sets), "sets", s.Int)
	snapshot.Verify(s, c.cfg.Ways, "ways", s.Int)
	// One Codec call per set, not four per line: a checkpoint is mostly
	// cache lines. The block is the per-line layout field for field —
	// u64 tag, bool valid, bool dirty, i64 lastUse, little-endian — so
	// the stream is the same bytes.
	block := make([]byte, c.cfg.Ways*lineBytes)
	for _, set := range c.sets {
		if !s.Loading() {
			for i := range set {
				set[i].pack(block[i*lineBytes:])
			}
		}
		s.Block(block)
		if s.Err() != nil {
			break
		}
		if !s.Loading() {
			continue
		}
		for i := range set {
			if b := set[i].unpack(block[i*lineBytes:]); b > 1 {
				s.Fail("invalid bool byte %#x", b)
				break
			}
		}
	}
	return s.End()
}

// lineBytes is one line's encoded size: tag, valid, dirty, lastUse.
const lineBytes = 8 + 1 + 1 + 8

func (l *line) pack(p []byte) {
	binary.LittleEndian.PutUint64(p, l.tag)
	p[8], p[9] = 0, 0
	if l.valid {
		p[8] = 1
	}
	if l.dirty {
		p[9] = 1
	}
	binary.LittleEndian.PutUint64(p[10:], uint64(l.lastUse))
}

// unpack loads the line from p unless one of its bool bytes is not 0 or
// 1, in which case it returns that byte and leaves the line as it was.
func (l *line) unpack(p []byte) byte {
	for _, b := range p[8:10] {
		if b > 1 {
			return b
		}
	}
	l.tag = binary.LittleEndian.Uint64(p)
	l.valid, l.dirty = p[8] == 1, p[9] == 1
	l.lastUse = int64(binary.LittleEndian.Uint64(p[10:]))
	return 0
}

// State visits the hierarchy: all three levels, the MSHR file, the
// outgoing fetch/writeback queues, and the statistics. The byAddr
// index and the free count are pure functions of the valid MSHR
// entries and are rebuilt on load rather than written.
func (h *Hierarchy) State(s *snapshot.Codec) error {
	s.Section("cache.Hierarchy")
	// Each level's section verifies its sets and ways, which with its
	// line size fix its capacity.
	snapshot.Verify(s, h.cfg, "configuration", func(g *HierarchyConfig) {
		for _, v := range []*int{&g.L1I.LineBytes, &g.L1I.Latency, &g.L1D.LineBytes, &g.L1D.Latency,
			&g.L2.LineBytes, &g.L2.Latency, &g.MSHRs, &g.WBQueueCap} {
			s.Int(v)
		}
	})
	h.l1i.State(s)
	h.l1d.State(s)
	h.l2.State(s)
	for i := range h.mshrs {
		m := &h.mshrs[i]
		s.U64(&m.lineAddr)
		s.Bool(&m.valid)
		s.Bool(&m.sent)
		s.Bool(&m.store)
		s.Bool(&m.ifetch)
	}
	// Only the live (unconsumed) regions are visited, so the head
	// indices need not be serialized and checkpoint bytes are identical
	// regardless of how far each queue has been consumed in place.
	sendQ, wbQ := h.sendQ[h.sendHead:], h.wbQ[h.wbHead:]
	snapshot.Slice(s, &sendQ, len(h.mshrs), s.Int)
	snapshot.Slice(s, &wbQ, snapshot.MaxSlice, s.U64)
	s.I64(&h.L2MissCount)
	s.I64(&h.Writebacks)
	s.I64(&h.MSHRFullNACK)
	if !s.Loading() || s.Err() != nil {
		return s.End()
	}
	h.sendQ, h.sendHead = sendQ, 0
	h.wbQ, h.wbHead = wbQ, 0
	clear(h.byAddr)
	h.free = 0
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if !m.valid {
			h.free++
			continue
		}
		if _, dup := h.byAddr[m.lineAddr]; dup {
			s.Fail("two valid MSHRs for line %#x", m.lineAddr)
			break
		}
		h.byAddr[m.lineAddr] = i
	}
	for _, tok := range h.sendQ {
		if tok < 0 || tok >= len(h.mshrs) || !h.mshrs[tok].valid {
			s.Fail("sendQ token %d invalid", tok)
			break
		}
	}
	return s.End()
}
