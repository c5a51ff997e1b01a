package metrics

import "repro/internal/snapshot"

// State visits every registered metric's current value, in
// registration order. Registration order is deterministic (components
// register at construction time), so values are positional, with the
// name and kind alongside for verification. Func metrics carry no
// state — they read the live components, which restore separately — so
// only their identity is written.
func (r *Registry) State(s *snapshot.Codec) error {
	s.Section("metrics.Registry")
	snapshot.Verify(s, len(r.items), "items", s.Int)
	for i := range r.items {
		it := &r.items[i]
		snapshot.Verify(s, it.name, "item name", s.Name)
		snapshot.Verify(s, uint8(it.kind), "item kind", s.U8)
		switch it.kind {
		case kindCounter:
			s.I64(&it.c.v)
		case kindGauge:
			s.I64(&it.g.v)
		case kindHistogram:
			for b := range it.h.counts {
				s.I64(&it.h.counts[b])
			}
			s.I64(&it.h.n)
			s.I64(&it.h.sum)
			s.I64(&it.h.max)
		}
	}
	return s.End()
}

// maxMapEntries caps decoded sample-map sizes; real samples hold one
// entry per registered metric.
const maxMapEntries = 1 << 16

func i64Map(s *snapshot.Codec, m *map[string]int64) {
	snapshot.Map(s, m, maxMapEntries, s.Name, s.I64)
}

func buckets(s *snapshot.Codec, b *[][2]int64) {
	snapshot.Slice(s, b, histBuckets, func(p *[2]int64) {
		s.I64(&p[0])
		s.I64(&p[1])
	})
}

func sampleState(s *snapshot.Codec, sm *Sample) {
	s.I64(&sm.Epoch)
	s.I64(&sm.Cycle)
	i64Map(s, &sm.Counters)
	i64Map(s, &sm.Gauges)
	snapshot.Map(s, &sm.Histograms, maxMapEntries, s.Name, func(d *HistogramDelta) {
		s.I64(&d.Count)
		s.I64(&d.Sum)
		buckets(s, &d.Buckets)
	})
}

func snapshotDocState(s *snapshot.Codec, d *Snapshot) {
	i64Map(s, &d.Counters)
	i64Map(s, &d.Gauges)
	snapshot.Map(s, &d.Histograms, maxMapEntries, s.Name, func(h *HistogramStats) {
		s.I64(&h.Count)
		s.I64(&h.Sum)
		s.F64(&h.Mean)
		s.I64(&h.Max)
		s.F64(&h.P50)
		s.F64(&h.P95)
		s.F64(&h.P99)
		buckets(s, &h.Buckets)
	})
}

// State visits the sampler: the previous-boundary cumulative values
// the next delta will difference against, the retained sample ring (in
// logical oldest-first order), and the published latest snapshot.
// Restoring all of it makes post-resume series artifacts byte-identical
// to an uninterrupted run's. Interval and capacity are construction
// state (sim's fingerprint has the interval).
func (sp *Sampler) State(s *snapshot.Codec) error {
	s.Section("metrics.Sampler")
	s.I64(&sp.nextAt)
	snapshot.Slice(s, &sp.prevCounter, maxMapEntries, s.I64)
	snapshot.Slice(s, &sp.prevHist, maxMapEntries, func(p *histPrev) {
		for b := range p.counts {
			s.I64(&p.counts[b])
		}
		s.I64(&p.n)
		s.I64(&p.sum)
	})
	sp.mu.Lock()
	defer sp.mu.Unlock()
	snapshot.Ring(s, &sp.ring, &sp.start, func(sm *Sample) { sampleState(s, sm) })
	if s.Loading() {
		sp.count, sp.latest = len(sp.ring), Snapshot{}
	}
	s.I64(&sp.epochs)
	s.Bool(&sp.has)
	if sp.has {
		snapshotDocState(s, &sp.latest)
	}
	if s.Loading() && s.Err() == nil && len(sp.prevCounter) != len(sp.prevHist) {
		s.Fail("prev arrays disagree (%d/%d)", len(sp.prevCounter), len(sp.prevHist))
	}
	return s.End()
}
