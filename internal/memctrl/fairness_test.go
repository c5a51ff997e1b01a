package memctrl

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// fullRing is a sampler over a synthetic registry of 100 items shaped
// like a two-thread controller's (the thread gauges and pair counters
// Fairness reads, then filler counters, gauges and histograms) after
// epochs samples, no simulation involved.
func fullRing(epochs int) *metrics.Sampler {
	reg := metrics.New()
	var tick int64
	for t := int64(0); t < 2; t++ {
		p := fmt.Sprintf("memctrl.thread%d.", t)
		reg.Func(p+"data_bus_cycles", func() int64 { return tick * (t + 1) })
		reg.Func(p+"pending_reads", func() int64 { return (tick + t) % 3 })
		reg.Gauge(p + "pending_writes")
		reg.Gauge(p + "share_num").Set(1)
		reg.Gauge(p + "share_den").Set(2)
	}
	var pairs []*metrics.Counter
	for v := 0; v < 2; v++ {
		for a := 0; a < 2; a++ {
			pairs = append(pairs, reg.Counter(fmt.Sprintf("interference.pair.v%d.a%d", v, a)))
		}
	}
	var fill []*metrics.Counter
	for i := 0; i < 80; i++ {
		fill = append(fill, reg.Counter(fmt.Sprintf("fill.c%02d", i)))
	}
	for i := 0; i < 4; i++ {
		reg.Gauge(fmt.Sprintf("fill.g%d", i)).Set(int64(i))
	}
	var hists []*metrics.Histogram
	for i := 0; i < 2; i++ {
		hists = append(hists, reg.Histogram(fmt.Sprintf("fill.h%d", i)))
	}
	s := metrics.NewSampler(reg, metrics.SamplerConfig{Interval: 100})
	for e := 0; e < epochs; e++ {
		tick = int64(e) * 7
		pairs[e%len(pairs)].Add(int64(e % 5))
		fill[e%len(fill)].Inc()
		hists[e%2].Observe(int64(e))
		s.Sample(int64(e) * 100)
	}
	return s
}

// TestFullRingScrapeAllocs gates a full-ring scrape by counts, not
// times. The copy allocates a constant number of times however many
// epochs the ring holds, and copy plus Fairness allocate the eight
// slices each scored FairnessSample holds plus a constant. Before the
// records were read in place, Sampler.Samples(-1) plus Fairness built
// three maps per epoch: 152,041 allocations (47 MB) on a full art+vpr
// ring of 108 metrics.
func TestFullRingScrapeAllocs(t *testing.T) {
	for _, epochs := range []int{10, metrics.DefaultSampleCapacity + 100} {
		s := fullRing(epochs)
		if got := testing.AllocsPerRun(5, func() { s.Series() }); got > 4 {
			t.Errorf("%d epochs: the copy allocates %v times, want at most 4", epochs, got)
		}
		want := epochs // a wrapped ring's oldest record is not scored
		if epochs > metrics.DefaultSampleCapacity {
			want = metrics.DefaultSampleCapacity - 1
		}
		if sum, scored := Fairness(s.Series()); len(scored) != want || sum.Threads != 2 {
			t.Fatalf("%d epochs: %d scored over %d threads, want %d over 2", epochs, len(scored), sum.Threads, want)
		}
		limit := float64(8*want + 64)
		if got := testing.AllocsPerRun(5, func() { Fairness(s.Series()) }); got > limit {
			t.Errorf("%d epochs: copy plus Fairness allocate %v times, want at most %v", epochs, got, limit)
		}
	}
}
