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
// slices each returned FairnessSample holds plus a constant: a scrape
// with ?since= near the ring's end scores every retained epoch but pays
// only for the few it returns. Before the records were read in place,
// Sampler.Samples(-1) plus Fairness built three maps per epoch: 152,041
// allocations (47 MB) on a full art+vpr ring of 108 metrics.
func TestFullRingScrapeAllocs(t *testing.T) {
	full := metrics.DefaultSampleCapacity + 100
	for _, tc := range []struct {
		epochs int
		since  int64
		want   int // samples returned
	}{
		{10, -1, 10},
		// A wrapped ring's oldest record is not scored.
		{full, -1, metrics.DefaultSampleCapacity - 1},
		// The last five boundaries, at cycles (full-5)*100 ... (full-1)*100.
		{full, int64(full-6) * 100, 5},
	} {
		s := fullRing(tc.epochs)
		if got := testing.AllocsPerRun(5, func() { s.Series(tc.since) }); got > 4 {
			t.Errorf("%d epochs since %d: the copy allocates %v times, want at most 4", tc.epochs, tc.since, got)
		}
		if n := s.Series(tc.since).Samples.Len(); tc.since >= 0 && n != tc.want {
			t.Errorf("%d epochs since %d: the copy holds %d records, want %d", tc.epochs, tc.since, n, tc.want)
		}
		sum, scored := Fairness(s.Series(-1), tc.since)
		if len(scored) != tc.want || sum.Threads != 2 || sum.Epochs != int64(min(tc.epochs, metrics.DefaultSampleCapacity-1)) {
			t.Fatalf("%d epochs since %d: %d returned of %d scored over %d threads, want %d over 2",
				tc.epochs, tc.since, len(scored), sum.Epochs, sum.Threads, tc.want)
		}
		limit := float64(8*tc.want + 64)
		if got := testing.AllocsPerRun(5, func() { Fairness(s.Series(-1), tc.since) }); got > limit {
			t.Errorf("%d epochs since %d: copy plus Fairness allocate %v times, want at most %v", tc.epochs, tc.since, got, limit)
		}
	}
}
