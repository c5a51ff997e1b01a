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

// fairCols are one thread's registry positions the reduction reads; a
// pair counter not registered (attribution off) is -1.
type fairCols struct {
	service, reads, writes, num, den int
	pair                             []int // by aggressor thread
}

// Fairness scores a sampler's retained epochs (metrics.Sampler.Series)
// and returns the summary of them all and the samples of the epochs at
// boundaries after cycle since (-1 for all). The threads are those
// whose five memctrl.threadN metrics are registered; the columns
// resolve to positions once, and each epoch is then one walk of its
// record. An epoch at or before since is scored in one reused sample,
// so what Fairness allocates grows with the samples it returns.
func Fairness(s metrics.Series, since int64) (FairnessSummary, []FairnessSample) {
	recs := s.Samples
	var cols []fairCols
	for t := 0; recs.Len() > 0; t++ {
		p := fmt.Sprintf("memctrl.thread%d.", t)
		c := fairCols{service: recs.Index(p + "data_bus_cycles"), reads: recs.Index(p + "pending_reads"),
			writes: recs.Index(p + "pending_writes"), num: recs.Index(p + "share_num"), den: recs.Index(p + "share_den")}
		if min(c.service, c.reads, c.writes, c.num, c.den) < 0 {
			break
		}
		cols = append(cols, c)
	}
	n := len(cols)
	for v := range cols {
		for a := 0; a < n; a++ {
			cols[v].pair = append(cols[v].pair, recs.Index(fmt.Sprintf("interference.pair.v%d.a%d", v, a)))
		}
	}
	sum := FairnessSummary{
		Interval:          s.Interval,
		Threads:           n,
		CumShortfall:      make([]float64, n),
		MaxEpochShortfall: make([]float64, n),
		MaxAbsExcess:      make([]float64, n),
	}
	newSample := func(epoch, cycle int64) FairnessSample {
		return FairnessSample{
			Epoch:        epoch,
			Cycle:        cycle,
			Service:      make([]int64, n),
			Share:        make([]float64, n),
			Phi:          make([]float64, n),
			Excess:       make([]float64, n),
			Backlogged:   make([]bool, n),
			CumShortfall: make([]float64, n),
			TopAggressor: make([]int, n),
			StolenCycles: make([]int64, n),
		}
	}
	keep := 0
	for i := recs.Len() - 1; i >= 0; i-- {
		if _, cycle := recs.At(i); cycle <= since {
			break
		}
		keep++
	}
	out := make([]FairnessSample, 0, keep)
	var skipped FairnessSample // scores each epoch at or before since
	var cur, prev []int64
	for i := range recs.Len() {
		if prev, cur = cur, recs.Row(i, prev); prev == nil {
			prev = make([]int64, len(cur)) // the cycle-0 baseline scores against zero
		}
		epoch, cycle := recs.At(i)
		if i == 0 && epoch != 0 {
			continue // a wrapped ring's oldest record has no predecessor
		}
		sum.Epochs++
		fs := &skipped
		if cycle > since {
			out = append(out, newSample(epoch, cycle))
			fs = &out[len(out)-1]
		} else if skipped.Service == nil {
			skipped = newSample(epoch, cycle)
		}
		fs.Total = 0
		for t, c := range cols {
			fs.Service[t] = cur[c.service] - prev[c.service]
			fs.Total += fs.Service[t]
			fs.Phi[t] = float64(cur[c.num]) / float64(cur[c.den])
			fs.Backlogged[t] = cur[c.reads]+cur[c.writes] > 0
			fs.TopAggressor[t], fs.StolenCycles[t] = -1, 0
			for a, pos := range c.pair {
				if pos >= 0 && a != t && cur[pos] > fs.StolenCycles[t] {
					fs.StolenCycles[t], fs.TopAggressor[t] = cur[pos], a
				}
			}
		}
		for t := range cols {
			fs.Share[t] = 0
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
	}
	return sum, out
}
