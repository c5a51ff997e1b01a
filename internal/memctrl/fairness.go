package memctrl

import (
	"fmt"

	"repro/internal/metrics"
)

// Fairness over time makes the paper's central claim observable as a
// time series rather than an end-of-run average: FQ-VFTF bounds how far
// each thread's received service can drift from its allocated share
// phi_i at every point in time, while FR-FCFS lets a bandwidth hog
// starve its neighbors for arbitrarily long stretches (Section 3,
// Figures 5/6). The series is a reduction over the epoch sampler's
// records of memctrl.threadN.data_bus_cycles (differenced between
// epochs), pending_reads/pending_writes, phi as share_num/share_den
// and, with attribution on, the interference.pair.vT.aA counter deltas.
// Each epoch is scored:
//
//   - share_i   = service_i / total service delivered this epoch
//   - excess_i  = service_i - phi_i * total: the signed drift of the
//     thread's service from its entitlement of what was delivered
//   - shortfall = max(0, -excess_i) accumulated only while the thread
//     is backlogged (has requests queued at the controller): service
//     a demanding thread was entitled to but did not receive
//
// Cumulative backlogged shortfall is the QoS headline: under FQ-VFTF it
// stays bounded (the scheduler repays any lag), under FR-FCFS it grows
// without bound for a starved thread.
//
// The reduction covers what the sampler retains. Epoch 0 is the
// baseline at cycle 0 and is scored against zero; once the sampler's
// ring has wrapped, the oldest retained record has no predecessor and
// is not scored, so the running aggregates start at the first scored
// epoch.

// FairnessSample is one epoch of per-thread service accounting. All
// slices are indexed by hardware thread.
type FairnessSample struct {
	// Epoch is the 0-based sample index; Cycle the boundary it was
	// taken at (the sample covers (prevCycle, Cycle]).
	Epoch int64 `json:"epoch"`
	Cycle int64 `json:"cycle"`

	// Service is the data-bus cycles each thread consumed this epoch;
	// Total is their sum.
	Service []int64 `json:"service"`
	Total   int64   `json:"total"`

	// Share is Service/Total (0 when the epoch delivered nothing);
	// Phi the allocated share at the boundary.
	Share []float64 `json:"share"`
	Phi   []float64 `json:"phi"`

	// Excess is Service - Phi*Total: positive when the thread consumed
	// beyond its entitlement of the delivered service (using slack),
	// negative when it fell short.
	Excess []float64 `json:"excess"`

	// Backlogged reports whether the thread had requests queued at the
	// controller at the boundary — a shortfall only counts against the
	// scheduler when the thread actually demanded service.
	Backlogged []bool `json:"backlogged"`

	// CumShortfall is the running sum of backlogged shortfalls up to
	// and including this epoch, in data-bus cycles.
	CumShortfall []float64 `json:"cum_shortfall"`

	// TopAggressor names the other thread charged the most of this
	// thread's wait cycles during the epoch by the interference
	// attribution layer, and StolenCycles that charge. -1/0 when no
	// other thread was charged or attribution is off.
	TopAggressor []int   `json:"top_aggressor"`
	StolenCycles []int64 `json:"stolen_cycles"`
}

// FairnessSummary is the digest of the scored epochs.
type FairnessSummary struct {
	// Epochs counts the scored epochs (fewer than the sampler has taken
	// once its ring wraps).
	Epochs   int64 `json:"epochs"`
	Interval int64 `json:"interval"`
	Threads  int   `json:"threads"`

	// CumShortfall is each thread's total backlogged shortfall;
	// MaxEpochShortfall the worst single backlogged epoch. Both in
	// data-bus cycles.
	CumShortfall      []float64 `json:"cum_shortfall"`
	MaxEpochShortfall []float64 `json:"max_epoch_shortfall"`

	// MaxAbsExcess is the largest single-epoch |excess| per thread,
	// backlogged or not.
	MaxAbsExcess []float64 `json:"max_abs_excess"`
}

// fairNames are one thread's registry names the reduction reads.
type fairNames struct {
	service, reads, writes, num, den string
	pair                             []string // by aggressor thread
}

// Fairness scores consecutive epoch samples of a controller's registry
// (metrics.Sampler.Samples, oldest first) at the given interval. The
// thread count is the number of threads whose share gauges the first
// sample carries.
func Fairness(interval int64, samples []metrics.Sample) (FairnessSummary, []FairnessSample) {
	var names []fairNames
	for t := 0; len(samples) > 0; t++ {
		p := fmt.Sprintf("memctrl.thread%d.", t)
		if _, ok := samples[0].Gauges[p+"share_den"]; !ok {
			break
		}
		names = append(names, fairNames{service: p + "data_bus_cycles", reads: p + "pending_reads",
			writes: p + "pending_writes", num: p + "share_num", den: p + "share_den"})
	}
	n := len(names)
	for v := range names {
		for a := 0; a < n; a++ {
			names[v].pair = append(names[v].pair, fmt.Sprintf("interference.pair.v%d.a%d", v, a))
		}
	}
	sum := FairnessSummary{
		Interval:          interval,
		Threads:           n,
		CumShortfall:      make([]float64, n),
		MaxEpochShortfall: make([]float64, n),
		MaxAbsExcess:      make([]float64, n),
	}
	out := make([]FairnessSample, 0, len(samples))
	for i := range samples {
		cur := &samples[i]
		var prev map[string]int64 // nil: the cycle-0 baseline scores against zero
		if i > 0 {
			prev = samples[i-1].Gauges
		} else if cur.Epoch != 0 {
			continue // a wrapped ring's oldest record has no predecessor
		}
		fs := FairnessSample{
			Epoch:        cur.Epoch,
			Cycle:        cur.Cycle,
			Service:      make([]int64, n),
			Share:        make([]float64, n),
			Phi:          make([]float64, n),
			Excess:       make([]float64, n),
			Backlogged:   make([]bool, n),
			CumShortfall: make([]float64, n),
			TopAggressor: make([]int, n),
			StolenCycles: make([]int64, n),
		}
		for t, nm := range names {
			fs.Service[t] = cur.Gauges[nm.service] - prev[nm.service]
			fs.Total += fs.Service[t]
			fs.Phi[t] = float64(cur.Gauges[nm.num]) / float64(cur.Gauges[nm.den])
			fs.Backlogged[t] = cur.Gauges[nm.reads]+cur.Gauges[nm.writes] > 0
			fs.TopAggressor[t] = -1
			for a, pn := range nm.pair {
				if d := cur.Counters[pn]; a != t && d > fs.StolenCycles[t] {
					fs.StolenCycles[t], fs.TopAggressor[t] = d, a
				}
			}
		}
		for t := range names {
			if fs.Total > 0 {
				fs.Share[t] = float64(fs.Service[t]) / float64(fs.Total)
			}
			fs.Excess[t] = float64(fs.Service[t]) - fs.Phi[t]*float64(fs.Total)
			sum.MaxAbsExcess[t] = max(sum.MaxAbsExcess[t], fs.Excess[t], -fs.Excess[t])
			if fs.Backlogged[t] && fs.Excess[t] < 0 {
				sum.CumShortfall[t] += -fs.Excess[t]
				sum.MaxEpochShortfall[t] = max(sum.MaxEpochShortfall[t], -fs.Excess[t])
			}
			fs.CumShortfall[t] = sum.CumShortfall[t]
		}
		out = append(out, fs)
	}
	sum.Epochs = int64(len(out))
	return sum, out
}
