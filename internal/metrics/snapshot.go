package metrics

import (
	"fmt"
	"reflect"

	"repro/internal/snapshot"
)

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
// the next delta will difference against, the retained ring (in
// logical oldest-first order), and the latest snapshot. The wire holds
// each record as its Sample maps and the latest snapshot in full; the
// decoder compacts both, refusing any that disagree with the registry
// or with the cumulative state. Restoring all of it makes post-resume
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
	s.I64(&sp.nextAt)
	snapshot.Slice(s, &sp.prevCounter, maxMapEntries, s.I64)
	snapshot.Slice(s, &sp.prevHist, maxMapEntries, func(p *histPrev) {
		for b := range p.counts {
			s.I64(&p.counts[b])
		}
		s.I64(&p.n)
		s.I64(&p.sum)
	})
	if s.Loading() && s.Err() == nil && (len(sp.prevCounter) != len(sp.prevHist) || len(sp.prevCounter) > len(sp.items)) {
		s.Fail("prev arrays disagree (%d/%d, %d metrics registered)",
			len(sp.prevCounter), len(sp.prevHist), len(sp.items))
	}
	newestItems := 0
	var sm Sample
	snapshot.Ring(s, &sp.ring, sp.capacity, &sp.start, func(r *record) {
		if !s.Loading() {
			sp.expand(r, &sm)
		} else {
			sm = Sample{}
		}
		sampleState(s, &sm)
		if !s.Loading() || s.Err() != nil {
			return
		}
		var err error
		if *r, err = compact(sp.items, &sm); err != nil {
			s.Fail("epoch %d: %v", sm.Epoch, err)
		}
		newestItems = len(sm.Counters) + len(sm.Gauges) + len(sm.Histograms)
	})
	s.I64(&sp.epochs)
	has := len(sp.ring) > 0
	s.Bool(&has)
	if s.Loading() && s.Err() == nil {
		if has != (len(sp.ring) > 0) {
			s.Fail("latest-snapshot flag %v disagrees with %d retained epochs", has, len(sp.ring))
		} else if has && newestItems != len(sp.prevCounter) {
			s.Fail("newest epoch covers %d metrics, the cumulative arrays %d", newestItems, len(sp.prevCounter))
		}
	}
	if !has {
		return s.End()
	}
	var doc Snapshot
	if !s.Loading() {
		doc = sp.latest()
	}
	snapshotDocState(s, &doc)
	if s.Loading() && s.Err() == nil {
		// Max is the one cumulative value only the snapshot carries.
		for i := range sp.prevHist {
			if it := &sp.items[i]; it.kind == kindHistogram {
				sp.prevHist[i].max = doc.Histograms[it.name].Max
			}
		}
		if !reflect.DeepEqual(doc, sp.latest()) {
			s.Fail("latest snapshot disagrees with the cumulative state")
		}
	}
	return s.End()
}

// compact turns a decoded Sample into a record. A record covers the
// first n registry items, where n is its entry count, so each of them
// must be found in the map of its own kind; n distinct hits among n
// entries leave no room for a foreign or misfiled name.
func compact(items []item, sm *Sample) (record, error) {
	n := len(sm.Counters) + len(sm.Gauges) + len(sm.Histograms)
	if n > len(items) {
		return record{}, fmt.Errorf("%d entries for %d registered metrics", n, len(items))
	}
	size := n // of the record's values
	for _, d := range sm.Histograms {
		size += 2 + 2*len(d.Buckets)
	}
	r := record{epoch: sm.Epoch, cycle: sm.Cycle, vals: make([]int64, 0, size)}
	for i := range items[:n] {
		it := &items[i]
		var ok bool
		var v int64
		where := "counters"
		switch it.kind {
		case kindCounter:
			v, ok = sm.Counters[it.name]
			r.vals = append(r.vals, v)
		case kindGauge, kindFunc:
			where = "gauges"
			v, ok = sm.Gauges[it.name]
			r.vals = append(r.vals, v)
		case kindHistogram:
			var d HistogramDelta
			where = "histograms"
			d, ok = sm.Histograms[it.name]
			r.vals = append(r.vals, d.Count, d.Sum, int64(len(d.Buckets)))
			for _, b := range d.Buckets {
				r.vals = append(r.vals, b[0], b[1])
			}
		}
		if !ok {
			return record{}, fmt.Errorf("metric %q (item %d of %d) is not among the record's %s", it.name, i, n, where)
		}
	}
	return r, nil
}
