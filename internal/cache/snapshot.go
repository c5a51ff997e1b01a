package cache

import "repro/internal/snapshot"

// State visits one cache level: the LRU clock, hit/miss counters, and
// each set's ways in order. Geometry (sets, ways) comes from the
// configuration the cache was constructed with and is only verified.
//
// A way is one uvarint 0 when invalid; a valid line is the uvarint
// (tag<<1 | dirty) + 1 and then its age, useTick − lastUse, as a
// uvarint. An invalid line's fields are dead (see line), so a decoded
// one is the zero line and a restored cache checkpoints to the bytes it
// was read from. Nothing is sized from the stream: every varint is
// bounded by the Codec and lands in a line the cache already has.
func (c *Cache) State(s *snapshot.Codec) error {
	s.Section("cache.Cache")
	s.I64(&c.useTick)
	s.I64(&c.Hits)
	s.I64(&c.Misses)
	snapshot.Verify(s, c.cfg.Sets(), "sets", s.Int)
	snapshot.Verify(s, c.cfg.Ways, "ways", s.Int)
	if s.Loading() && s.Err() == nil && c.useTick < 0 {
		s.Fail("LRU clock %d is negative", c.useTick)
	}
	for i := 0; i < len(c.lines) && s.Err() == nil; i += c.cfg.Ways {
		set := c.lines[i : i+c.cfg.Ways]
		for w := range set {
			c.wayState(s, &set[w])
		}
		if s.Loading() {
			c.checkSet(s, set)
		}
	}
	return s.End()
}

// wayState visits one way in the layout State describes.
func (c *Cache) wayState(s *snapshot.Codec, l *line) {
	var v, age uint64
	if l.key&lineValid != 0 {
		v, age = l.key>>1+1, uint64(c.useTick-l.lastUse)
	}
	s.Uvarint(&v)
	if v != 0 {
		s.Uvarint(&age)
	}
	if !s.Loading() || s.Err() != nil {
		return
	}
	switch tag := (v - 1) >> 1; {
	case v == 0:
		*l = line{}
	case tag>>(64-c.tagShift) != 0:
		s.Fail("tag %#x is wider than a line address", tag)
	case age > uint64(c.useTick):
		s.Fail("line age %d exceeds the LRU clock %d", age, c.useTick)
	default:
		*l = line{key: (v-1)<<1 | lineValid, lastUse: c.useTick - int64(age)}
	}
}

// checkSet refuses a decoded set that holds one tag in two valid ways:
// a lookup would find only the first.
func (c *Cache) checkSet(s *snapshot.Codec, set []line) {
	for i, a := range set {
		if a.key&lineValid == 0 {
			continue
		}
		for _, b := range set[:i] {
			if b.key&^lineDirty == a.key&^lineDirty {
				s.Fail("tag %#x is in two ways of one set", a.key>>2)
				return
			}
		}
	}
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
