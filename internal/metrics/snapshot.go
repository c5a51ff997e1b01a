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

// State visits the sampler: the previous-boundary cumulative values
// the next delta will difference against (a histogram's max included),
// and the retained ring in logical oldest-first order, each record as
// its epoch, cycle and positional values. Registry.State has verified
// every item's name and kind, so a record needs no names; the decoder
// refuses one that does not parse against the registry, and a newest
// record that covers fewer items than the cumulative arrays (the
// Latest snapshot reads both). Restoring all of it makes post-resume
// series artifacts byte-identical to an uninterrupted run's. Interval
// and capacity are construction state (sim's fingerprint has the
// interval).
func (sp *Sampler) State(s *snapshot.Codec) error {
	s.Section("metrics.Sampler")
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if s.Loading() {
		sp.items = sp.reg.items
	}
	n := len(sp.items)
	s.I64(&sp.nextAt)
	snapshot.Slice(s, &sp.prevCounter, n, s.I64)
	snapshot.Slice(s, &sp.prevHist, n, func(p *histPrev) {
		for b := range p.counts {
			s.I64(&p.counts[b])
		}
		s.I64(&p.n)
		s.I64(&p.sum)
		s.I64(&p.max)
	})
	if s.Loading() && s.Err() == nil && len(sp.prevCounter) != len(sp.prevHist) {
		s.Fail("prev arrays disagree (%d/%d)", len(sp.prevCounter), len(sp.prevHist))
	}
	newest := 0 // items the newest record covers
	snapshot.Ring(s, &sp.ring, sp.capacity, &sp.start, func(r *record) {
		s.I64(&r.epoch)
		s.I64(&r.cycle)
		snapshot.Slice(s, &r.vals, n*(3+2*histBuckets), s.I64)
		if s.Loading() && s.Err() == nil {
			var err error
			if newest, err = r.walk(sp.items, nil); err != nil {
				s.Fail("epoch %d: %v", r.epoch, err)
			}
		}
	})
	s.I64(&sp.epochs)
	if s.Loading() && s.Err() == nil && len(sp.ring) > 0 && newest != len(sp.prevCounter) {
		s.Fail("newest epoch covers %d metrics, the cumulative arrays %d", newest, len(sp.prevCounter))
	}
	return s.End()
}
