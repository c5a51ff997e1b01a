package metrics

import "sync"

// The epoch sampler turns the registry's cumulative metrics into a
// bounded time series. The simulator calls Sample on epoch boundaries
// (exact multiples of the configured cycle interval: sim.Step compares
// its cycle counter with NextSampleAt); each call differences the
// registry against the previous epoch and appends one positional record
// to a ring that grows on demand up to its capacity. Names appear only
// on read: Samples and Latest build their maps from the records and the
// cumulative arrays, so an epoch costs one record and no map, and the
// checkpoint carries the records as they are.
//
// Concurrency contract: Sample and NextSampleAt are called only from
// the simulation goroutine, which is also the only mutator of the
// registry — so Func metrics are always evaluated on the goroutine
// that owns the state they read. Everything a concurrent reader (the
// telemetry HTTP server) can touch — the ring, the cumulative arrays,
// the epoch count, and the registry's item list as the last Sample saw
// it — is guarded by a mutex. A scrape never reads the live registry,
// so a late registration cannot race a scrape.

// DefaultSampleInterval is the default epoch length in cycles. At
// simulator throughputs of tens of Msimcycles/s this is thousands of
// snapshots per second, cheap next to simulating the epoch itself.
const DefaultSampleInterval = 10_000

// DefaultSampleCapacity is the default ring size: the most recent
// epochs retained for the /series endpoint and timeline exports.
const DefaultSampleCapacity = 4096

// SamplerConfig configures an epoch sampler.
type SamplerConfig struct {
	// Interval is the epoch length in cycles (<= 0 selects
	// DefaultSampleInterval). Samples land on exact multiples.
	Interval int64

	// Capacity bounds the retained samples; the ring keeps the most
	// recent Capacity epochs (<= 0 selects DefaultSampleCapacity).
	Capacity int
}

// HistogramDelta is one histogram's per-epoch activity: the
// observations recorded during the epoch, as count/sum plus the
// non-empty log2 buckets ([right-edge, count] pairs, like
// HistogramStats.Buckets but covering only this epoch).
type HistogramDelta struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Sample is one epoch of registry activity. Counters hold per-epoch
// deltas (rates once divided by the interval); Gauges hold
// point-in-time values at the boundary (Func metrics included);
// Histograms hold per-epoch observation deltas.
type Sample struct {
	// Epoch is the 0-based sample index (epoch 0 is the baseline
	// sample at cycle 0 when the caller takes one).
	Epoch int64 `json:"epoch"`

	// Cycle is the boundary this sample was taken at: the sample
	// covers activity in (prevCycle, Cycle].
	Cycle int64 `json:"cycle"`

	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramDelta `json:"histograms,omitempty"`
}

// histPrev is the cumulative state of one histogram at the previous
// epoch boundary.
type histPrev struct {
	counts      [histBuckets]int64
	n, sum, max int64
}

// record is one epoch in positional form. vals walks the registry's
// items in registration order: a counter's delta or a gauge's value is
// one slot; a histogram's is its count and sum deltas, the number of
// non-empty buckets, and that many (right edge, count) pairs. A record
// ends where the registry ended when it was taken.
type record struct {
	epoch, cycle int64
	vals         []int64
}

// Sampler snapshots a Registry on epoch boundaries and retains the
// per-epoch deltas in a bounded ring.
type Sampler struct {
	reg      *Registry
	interval int64
	capacity int
	nextAt   int64
	buf      []int64 // the record being taken

	mu    sync.Mutex
	items []item // the registry's items as of the last Sample
	// Cumulative values at the previous boundary, indexed by registry
	// item position (items register at construction time, before
	// sampling starts; late registrations difference against zero).
	// With the newest record's gauges they are the Latest snapshot.
	prevCounter []int64
	prevHist    []histPrev
	ring        []record // grows on demand up to capacity
	start       int      // index of the oldest retained record
	epochs      int64    // samples taken ever
}

// NewSampler returns a sampler over the registry. It takes no sample
// until the caller does; callers that want an immediately scrapeable
// exposition take a baseline sample at cycle 0.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		nextAt:   cfg.Interval,
	}
}

// Interval returns the epoch length in cycles.
func (s *Sampler) Interval() int64 { return s.interval }

// NextSampleAt returns the next epoch boundary: the simulation calls
// Sample when its cycle counter reaches it.
func (s *Sampler) NextSampleAt() int64 { return s.nextAt }

// Sample snapshots the registry at the given cycle and appends the
// epoch's record to the ring. It must be called from the simulation
// goroutine (Func metrics are evaluated here and only here). Once the
// ring is full the evicted record's storage is reused, so a steady
// run's epoch allocates nothing.
func (s *Sampler) Sample(cycle int64) {
	items := s.reg.items
	if len(s.prevCounter) < len(items) {
		s.mu.Lock()
		for len(s.prevCounter) < len(items) {
			s.prevCounter = append(s.prevCounter, 0)
			s.prevHist = append(s.prevHist, histPrev{})
		}
		s.mu.Unlock()
	}
	// The record is taken outside the lock, which Func metrics (caller
	// code) must not run under; only this goroutine writes the prev
	// arrays, and only below.
	v := s.buf[:0]
	for i, it := range items {
		switch it.kind {
		case kindCounter:
			v = append(v, it.c.v-s.prevCounter[i])
		case kindGauge:
			v = append(v, it.g.v)
		case kindFunc:
			v = append(v, it.fn())
		case kindHistogram:
			h, prev := it.h, &s.prevHist[i]
			v = append(v, h.n-prev.n, h.sum-prev.sum, 0)
			nb := len(v) - 1
			for b := 0; b < histBuckets; b++ {
				if dc := h.counts[b] - prev.counts[b]; dc != 0 {
					v = append(v, bucketEdge(b), dc)
					v[nb]++
				}
			}
		}
	}
	s.buf = v
	for s.nextAt <= cycle {
		s.nextAt += s.interval
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = items
	for i, it := range items {
		switch it.kind {
		case kindCounter:
			s.prevCounter[i] = it.c.v
		case kindHistogram:
			h := it.h
			s.prevHist[i] = histPrev{counts: h.counts, n: h.n, sum: h.sum, max: h.max}
		}
	}
	r := record{epoch: s.epochs, cycle: cycle}
	s.epochs++
	if len(s.ring) < s.capacity {
		r.vals = append([]int64(nil), v...)
		s.ring = append(s.ring, r)
		return
	}
	// Ring full: overwrite the oldest, reusing its storage.
	r.vals = append(s.ring[s.start].vals[:0], v...)
	s.ring[s.start] = r
	s.start = (s.start + 1) % len(s.ring)
}

// walk calls fn with each item the record covers: its registry
// position and its values (one, or a histogram's 3 + 2·buckets). A
// decoded record has passed covers, which checks what walk trusts.
func (r *record) walk(items []item, fn func(i int, v []int64)) {
	v := r.vals
	for i := 0; len(v) > 0; i++ {
		n := 1
		if items[i].kind == kindHistogram {
			n = 3 + 2*int(v[2])
		}
		fn(i, v[:n])
		v = v[n:]
	}
}

// expand fills sm with a record's Sample maps, reusing any maps sm
// already has: the checkpoint encoder expands every record into one
// Sample, where building three maps per record would triple its cost.
// Caller holds mu.
func (s *Sampler) expand(r *record, sm *Sample) {
	if sm.Counters == nil {
		sm.Counters = make(map[string]int64)
		sm.Gauges = make(map[string]int64)
		sm.Histograms = make(map[string]HistogramDelta)
	}
	clear(sm.Counters)
	clear(sm.Gauges)
	clear(sm.Histograms)
	sm.Epoch, sm.Cycle = r.epoch, r.cycle
	r.walk(s.items, func(i int, v []int64) {
		it := &s.items[i]
		switch it.kind {
		case kindCounter:
			sm.Counters[it.name] = v[0]
		case kindGauge, kindFunc:
			sm.Gauges[it.name] = v[0]
		case kindHistogram:
			d := HistogramDelta{Count: v[0], Sum: v[1]}
			for b := 3; b < len(v); b += 2 {
				d.Buckets = append(d.Buckets, [2]int64{v[b], v[b+1]})
			}
			sm.Histograms[it.name] = d
		}
	})
}

// latest builds the cumulative snapshot as of the newest record: the
// counters' and histograms' boundary values and the newest record's
// gauges. Caller holds mu; the ring is not empty, and its newest record
// covers the items the cumulative arrays do.
func (s *Sampler) latest() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64, len(s.prevCounter)),
		Gauges:     make(map[string]int64, len(s.prevCounter)),
		Histograms: make(map[string]HistogramStats),
	}
	newest := &s.ring[(s.start+len(s.ring)-1)%len(s.ring)]
	newest.walk(s.items, func(i int, v []int64) {
		it := &s.items[i]
		switch it.kind {
		case kindCounter:
			snap.Counters[it.name] = s.prevCounter[i]
		case kindGauge, kindFunc:
			snap.Gauges[it.name] = v[0]
		case kindHistogram:
			p := &s.prevHist[i]
			snap.Histograms[it.name] = histStats(&Histogram{counts: p.counts, n: p.n, sum: p.sum, max: p.max})
		}
	})
	return snap
}

// Epochs returns how many samples have been taken ever (including any
// that have since been evicted from the ring).
func (s *Sampler) Epochs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}

// Latest returns the most recent cumulative snapshot, built on each
// call from state the last Sample published (safe to call while the
// simulation runs). ok is false until the first sample is taken.
func (s *Sampler) Latest() (snap Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return Snapshot{}, false
	}
	return s.latest(), true
}

// Samples returns the retained samples at boundary cycles strictly
// greater than sinceCycle, oldest first (pass a negative value for
// all). The result is built on each call and safe to use concurrently
// with sampling.
func (s *Sampler) Samples(sinceCycle int64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	for i := range s.ring {
		r := &s.ring[(s.start+i)%len(s.ring)]
		if r.cycle > sinceCycle {
			var sm Sample
			s.expand(r, &sm)
			out = append(out, sm)
		}
	}
	return out
}
