package metrics

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// The epoch sampler turns the registry's cumulative metrics into a
// bounded time series. The simulator calls Sample on epoch boundaries
// (exact multiples of the configured cycle interval: sim.Step compares
// its cycle counter with NextSampleAt); each call differences the
// registry against the previous epoch and appends one positional record
// to a ring that grows on demand up to its capacity. An epoch has one
// form from Sample through the checkpoint to every reader: Series
// copies the records out, and its readers resolve names to positions
// once and walk them. Only Latest builds maps, one set per call.
//
// Concurrency contract: Sample and NextSampleAt are called only from
// the simulation goroutine, which is also the only mutator of the
// registry — so Func metrics are always evaluated on the goroutine
// that owns the state they read. Everything a concurrent reader (the
// telemetry HTTP server) can touch — the ring, the cumulative arrays,
// the epoch count, and the registry's item list as the last Sample saw
// it — is guarded by a mutex, which a reader holds only to copy. A
// scrape never reads the live registry, so a late registration cannot
// race a scrape.

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

// walk calls fn (when not nil) with each item the record covers: its
// registry position and its values (one, or a histogram's 3 + 2·buckets).
// It returns how many items that is, or why the record does not parse
// against items; only a hostile checkpoint holds such a record, and the
// decoder refuses it.
func (r *record) walk(items []item, fn func(i int, v []int64)) (int, error) {
	v, i := r.vals, 0
	for ; len(v) > 0; i++ {
		if i == len(items) {
			return 0, fmt.Errorf("values past the %d registered metrics", len(items))
		}
		n := 1
		if it := &items[i]; it.kind == kindHistogram {
			if n = 3; len(v) >= n {
				if nb := v[2]; nb < 0 || nb > histBuckets {
					return 0, fmt.Errorf("histogram %q has %d buckets, want at most %d", it.name, nb, histBuckets)
				}
				n += 2 * int(v[2])
			}
			if n > len(v) {
				return 0, fmt.Errorf("histogram %q runs past the record's end", it.name)
			}
		}
		if fn != nil {
			fn(i, v[:n])
		}
		v = v[n:]
	}
	return i, nil
}

// Latest returns the cumulative snapshot as of the newest record: the
// counters' and histograms' boundary values and the newest record's
// gauges, built on each call from state the last Sample published (safe
// while the simulation runs). ok is false until the first sample.
func (s *Sampler) Latest() (snap Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return Snapshot{}, false
	}
	snap = newSnapshot(len(s.prevCounter))
	s.ring[(s.start+len(s.ring)-1)%len(s.ring)].walk(s.items, func(i int, v []int64) {
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
	return snap, true
}

// Series is one consistent copy of what a sampler retains. It shares
// no storage the sampler goes on to write, so a reader may keep it
// while the simulation runs.
type Series struct {
	Interval int64   `json:"interval"` // epoch length in cycles
	Epochs   int64   `json:"epochs"`   // samples taken ever, evicted ones included
	Samples  Records `json:"samples"`  // the retained epochs
}

// Records is a run of epoch records, oldest first, with the item table
// they are positional over (read for names and kinds only).
type Records struct {
	items []item
	recs  []record
}

// Series copies the retained records at boundaries after cycle since
// (-1 for all) under one lock acquisition: two allocations whatever the
// ring's length, the copied records in one array.
func (s *Sampler) Series(since int64) Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := func(i int) *record { return &s.ring[(s.start+i)%len(s.ring)] }
	first := sort.Search(len(s.ring), func(i int) bool { return at(i).cycle > since })
	n := 0
	for i := first; i < len(s.ring); i++ {
		n += len(at(i).vals)
	}
	vals, recs := make([]int64, 0, n), make([]record, len(s.ring)-first)
	for i := range recs {
		r := at(first + i)
		vals = append(vals, r.vals...)
		recs[i] = record{r.epoch, r.cycle, vals[len(vals)-len(r.vals):]}
	}
	return Series{Interval: s.interval, Epochs: s.epochs, Samples: Records{s.items, recs}}
}

// Len returns the number of records.
func (r Records) Len() int { return len(r.recs) }

// At returns record i's sample index (0 is the cycle-0 baseline) and
// the boundary it was taken at: it covers (the previous one, cycle].
func (r Records) At(i int) (epoch, cycle int64) { return r.recs[i].epoch, r.recs[i].cycle }

// Index returns the position of the counter, gauge or Func called name,
// or -1 when there is none (a histogram has no one value).
func (r Records) Index(name string) int {
	return slices.IndexFunc(r.items, func(it item) bool { return it.name == name && it.kind != kindHistogram })
}

// Row fills row (reusing its storage) with record i's value at each
// position: a counter's delta, a gauge's or Func's value, a histogram's
// count delta, 0 for an item registered after the record was taken.
func (r Records) Row(i int, row []int64) []int64 {
	row = slices.Grow(row[:0], len(r.items))[:len(r.items)]
	clear(row)
	r.recs[i].walk(r.items, func(pos int, v []int64) { row[pos] = v[0] })
	return row
}

// kindGroup is the JSON object each kind is listed under.
var kindGroup = [...]string{kindCounter: "counters", kindGauge: "gauges", kindFunc: "gauges", kindHistogram: "histograms"}

// MarshalJSON encodes each record as {epoch, cycle, counters, gauges,
// histograms}: per group the names the record covers in sorted order,
// a histogram as {count, sum, buckets} with buckets its non-empty
// [right edge, count] pairs. An empty group or bucket list is left out.
func (r Records) MarshalJSON() ([]byte, error) {
	order := make([]int, len(r.items)) // positions in name order
	names, vals := make([][]byte, len(r.items)), make([][]int64, len(r.items))
	for i := range order {
		order[i] = i
		names[i], _ = json.Marshal(r.items[i].name)
	}
	sort.Slice(order, func(a, b int) bool { return r.items[order[a]].name < r.items[order[b]].name })
	b, lead := []byte{'['}, ""
	for _, rec := range r.recs {
		clear(vals)
		rec.walk(r.items, func(pos int, v []int64) { vals[pos] = v })
		b = fmt.Appendf(b, `%s{"epoch":%d,"cycle":%d`, lead, rec.epoch, rec.cycle)
		lead = ","
		for _, group := range [...]string{"counters", "gauges", "histograms"} {
			sep := `,"` + group + `":{`
			for _, pos := range order {
				it, v := &r.items[pos], vals[pos]
				if v == nil || kindGroup[it.kind] != group {
					continue
				}
				b = append(append(append(b, sep...), names[pos]...), ':')
				if sep = ","; it.kind != kindHistogram {
					b = strconv.AppendInt(b, v[0], 10)
					continue
				}
				b = fmt.Appendf(b, `{"count":%d,"sum":%d`, v[0], v[1])
				if len(v) > 3 {
					b = append(b, `,"buckets":[`...)
					for k := 3; k < len(v); k += 2 {
						b = fmt.Appendf(b, "[%d,%d],", v[k], v[k+1])
					}
					b[len(b)-1] = ']'
				}
				b = append(b, '}')
			}
			if sep == "," {
				b = append(b, '}')
			}
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}
