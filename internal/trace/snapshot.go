package trace

import "repro/internal/snapshot"

// State visits the generator's mutable cursor: the rng state and the
// stream/burst/code positions. Everything else (thresholds, working-set
// geometry, the address base) is derived from the profile, thread id,
// and seed at construction, so a restored generator only needs the
// cursor to continue the identical instruction stream.
func (g *Generator) State(s *snapshot.Codec) error {
	s.Section("trace.Generator")
	s.U64(&g.r.s)
	s.U64s(g.streamPos)
	s.Ints(g.streamLeft)
	s.Int(&g.nextStream)
	s.Int(&g.lastLoadAgo)
	s.Int(&g.burstLeft)
	s.Int(&g.burstStream)
	s.U64(&g.codePos)
	s.U64(&g.count)
	s.U64(&g.attackStep)
	if s.Loading() && s.Err() == nil {
		// nextStream and burstStream index streamPos on the dispatch
		// path; reject out-of-range values rather than storing a latent
		// panic.
		if g.nextStream < 0 || g.nextStream >= len(g.streamPos) {
			s.Fail("nextStream %d out of range", g.nextStream)
		}
		if g.burstStream < -1 || g.burstStream >= len(g.streamPos) {
			s.Fail("burstStream %d out of range", g.burstStream)
		}
	}
	return s.End()
}

// State visits the replay reader's cursor (the records themselves live
// in the trace file, not the snapshot).
func (t *Reader) State(s *snapshot.Codec) error {
	s.Section("trace.Reader")
	s.Int(&t.pos)
	s.U64(&t.codePos)
	if s.Loading() && s.Err() == nil &&
		(t.pos < 0 || (len(t.records) > 0 && t.pos >= len(t.records)) || (len(t.records) == 0 && t.pos != 0)) {
		s.Fail("position %d outside %d records", t.pos, len(t.records))
	}
	return s.End()
}
