// Package metrics is the simulator's observability substrate: a
// metrics registry (counters, gauges, log2-bucketed latency histograms)
// and a Chrome trace-event exporter (chrometrace.go). It is designed
// for a cycle-accurate hot loop:
//
//   - Updating a metric never allocates. Counter/Gauge/Histogram
//     handles are plain structs obtained at registration time; Inc,
//     Add, Set, and Observe are branch-light field updates.
//   - Instrumented components hold a nil-able handle struct and guard
//     hot-path updates with a single pointer test, so a run with
//     metrics disabled costs one predicted branch per site and is
//     bit-identical to an uninstrumented build (the simulation never
//     reads a metric).
//   - Anything a component already tracks for its simulation results
//     (controller ThreadStats, DRAM busy cycles, core retirement) is
//     exported by registering a read function, which costs nothing
//     until a snapshot is taken.
//
// A Registry belongs to one simulated system and is not synchronized
// for concurrent mutation; parallel sweeps give each system its own
// registry (matching how internal/exp runs independent simulations).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be non-negative for the value to stay monotone).
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous value.
type Gauge struct{ v int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v }

// histBuckets is the bucket count of a log2 histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. bucket 0 is {0}, bucket
// i covers [2^(i-1), 2^i). 65 buckets cover every int64.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of non-negative integer
// observations (cycle counts, queue depths). Observe is O(1) with no
// allocation; quantiles are upper bounds (the right edge of the bucket
// containing the quantile), which is the right fidelity for latency
// tails spanning decades.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// Observe records one observation; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound on the q-quantile: the right edge of
// the bucket containing it, clamped to the observed maximum (so p99 of
// a tight distribution does not report a power of two far above any
// real observation). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			edge := float64(int64(1) << uint(i)) // right edge of bucket i
			if i == 0 {
				edge = 0
			}
			if m := float64(h.max); edge > m {
				edge = m
			}
			return edge
		}
	}
	return float64(h.max)
}

// kind tags a registered metric.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindFunc
)

// item is one registered metric.
type item struct {
	name string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// Registry holds one simulated system's metrics. The zero value is not
// usable; call New.
type Registry struct {
	items  []item
	byName map[string]int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// register adds an item, panicking on duplicate names (metric names are
// chosen by the instrumented components at construction time, so a
// collision is a programming error, not runtime input).
func (r *Registry) register(it item) {
	if _, dup := r.byName[it.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", it.name))
	}
	r.byName[it.name] = len(r.items)
	r.items = append(r.items, it)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(item{name: name, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.register(item{name: name, kind: kindGauge, g: g})
	return g
}

// Histogram registers and returns a log2-bucketed histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.register(item{name: name, kind: kindHistogram, h: h})
	return h
}

// Func registers a read-on-snapshot gauge: fn is invoked only when a
// snapshot is taken, so mirroring an existing simulation statistic into
// the registry costs nothing on the hot path.
func (r *Registry) Func(name string, fn func() int64) {
	r.register(item{name: name, kind: kindFunc, fn: fn})
}

// HistogramStats is a histogram's exported summary.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets lists the non-empty log2 buckets as [right-edge, count]
	// pairs, smallest edge first.
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// histStats summarizes a histogram.
func histStats(h *Histogram) HistogramStats {
	s := HistogramStats{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, [2]int64{bucketEdge(i), c})
		}
	}
	return s
}

// bucketEdge is histogram bucket b's right edge, the label its
// exported [edge, count] pairs carry.
func bucketEdge(b int) int64 {
	if b == 0 {
		return 0
	}
	return int64(1) << uint(b)
}

// Snapshot is a point-in-time export of every registered metric,
// JSON-serializable for `fqsim -metrics`.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot exports the current value of every metric. Func metrics are
// read here (and only here).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramStats),
	}
	for _, it := range r.items {
		switch it.kind {
		case kindCounter:
			s.Counters[it.name] = it.c.Value()
		case kindGauge:
			s.Gauges[it.name] = it.g.Value()
		case kindHistogram:
			s.Histograms[it.name] = histStats(it.h)
		case kindFunc:
			s.Gauges[it.name] = it.fn()
		}
	}
	return s
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.items))
	for _, it := range r.items {
		names = append(names, it.name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
