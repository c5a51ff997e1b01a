package stats

import "repro/internal/snapshot"

// State visits the histogram's counts and moments. The bucket width
// and count are construction state: a mismatch means the snapshot
// belongs to a different configuration.
func (h *Histogram) State(s *snapshot.Codec) error {
	s.Section("stats.Histogram")
	snapshot.Verify(s, h.BucketWidth, "bucket width", s.F64)
	s.I64s(h.Counts)
	s.I64(&h.Overflow)
	s.I64(&h.N)
	s.F64(&h.Sum)
	return s.End()
}
