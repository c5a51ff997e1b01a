package exp

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

// ThreadOutcome is one thread of one four-core workload under one
// scheduler.
type ThreadOutcome struct {
	Benchmark string
	// NormIPC is normalized to the benchmark alone on a private memory
	// system time scaled by 4.
	NormIPC float64
	BusUtil float64
	ReadLat float64
}

// WorkloadOutcome is one four-core workload under one scheduler.
type WorkloadOutcome struct {
	Workload []string
	Policy   string
	Threads  []ThreadOutcome
	// HMNormIPC is the harmonic mean of the threads' normalized IPCs.
	HMNormIPC   float64
	AggBusUtil  float64
	AggBankUtil float64
}

// Figure8Result reproduces Figure 8: the four heterogeneous 4-core
// workloads (every fourth benchmark of the top sixteen) under each
// scheduler.
type Figure8Result struct {
	Outcomes []WorkloadOutcome // workload-major, policy-minor
}

// Figure8 runs the Figure 8 experiment.
func (r *Runner) Figure8() (Figure8Result, error) {
	wls := trace.FourCoreWorkloads()
	out := Figure8Result{Outcomes: make([]WorkloadOutcome, len(wls)*len(policies))}
	err := r.parallelDo(len(wls)*len(policies), func(k int) error {
		wi, pi := k/len(policies), k%len(policies)
		wl, pol := wls[wi], policies[pi]
		res, err := r.CoRun(wl, pol)
		if err != nil {
			return err
		}
		o := WorkloadOutcome{
			Workload:    wl,
			Policy:      pol,
			AggBusUtil:  res.DataBusUtil,
			AggBankUtil: res.BankUtil,
		}
		var norms []float64
		for ti, bench := range wl {
			base, err := r.Solo(bench, 4)
			if err != nil {
				return err
			}
			t := res.Threads[ti]
			norm := t.IPC / base.IPC
			norms = append(norms, norm)
			o.Threads = append(o.Threads, ThreadOutcome{
				Benchmark: bench, NormIPC: norm, BusUtil: t.BusUtil, ReadLat: t.AvgReadLatency,
			})
		}
		o.HMNormIPC = stats.HarmonicMean(norms)
		out.Outcomes[k] = o
		return nil
	})
	return out, err
}

// ByPolicy returns the outcomes for one scheduler, in workload order.
func (f Figure8Result) ByPolicy(policy string) []WorkloadOutcome {
	var out []WorkloadOutcome
	for _, o := range f.Outcomes {
		if o.Policy == policy {
			out = append(out, o)
		}
	}
	return out
}

// Improvements returns the per-workload relative improvement of the
// harmonic-mean metric of policy over baseline, plus mean and max
// (paper: 41%, -2%, -2%, 14% per workload; average 14%, up to 41%).
func (f Figure8Result) Improvements(policy, baseline string) (per []float64, mean, max float64) {
	p, b := f.ByPolicy(policy), f.ByPolicy(baseline)
	for i := range p {
		per = append(per, p[i].HMNormIPC/b[i].HMNormIPC-1)
	}
	return per, stats.Mean(per), stats.Max(per)
}

// QoSCount counts threads meeting normalized IPC >= threshold under the
// policy (paper: FQ-VFTF provides QoS to all threads in all workloads).
func (f Figure8Result) QoSCount(policy string, threshold float64) (met, total int) {
	for _, o := range f.ByPolicy(policy) {
		for _, t := range o.Threads {
			total++
			if t.NormIPC >= threshold {
				met++
			}
		}
	}
	return met, total
}

// Render writes the figure as a text table.
func (f Figure8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: four-core workloads (phi=1/4 each), normalized IPC and bus utilization\n")
	for wi, o := range f.ByPolicy("FR-FCFS") {
		fmt.Fprintf(w, "workload %d: %v\n", wi+1, o.Workload)
		for _, p := range PolicyNames() {
			oo := f.ByPolicy(p)[wi]
			fmt.Fprintf(w, "  %-8s HM=%.2f bus=%.2f bank=%.2f |", p, oo.HMNormIPC, oo.AggBusUtil, oo.AggBankUtil)
			for _, t := range oo.Threads {
				fmt.Fprintf(w, " %s %.2f/%.2f", t.Benchmark, t.NormIPC, t.BusUtil)
			}
			fmt.Fprintln(w)
		}
	}
	for _, p := range []string{"FR-VFTF", "FQ-VFTF"} {
		per, mean, max := f.Improvements(p, "FR-FCFS")
		fmt.Fprintf(w, "%s vs FR-FCFS per workload: ", p)
		for _, x := range per {
			fmt.Fprintf(w, "%+.0f%% ", x*100)
		}
		fmt.Fprintf(w, "(avg %+.0f%%, best %+.0f%%)\n", mean*100, max*100)
	}
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

// ScatterPoint is one thread of one 4-core workload in Figure 9's
// normalized-latency versus normalized-bus-utilization scatter.
type ScatterPoint struct {
	Benchmark string
	Policy    string

	// NormLatency is the thread's read latency normalized to the same
	// benchmark running alone on the (unscaled) system.
	NormLatency float64

	// NormBusUtil is the thread's data bus utilization normalized to
	// its target bus utilization.
	NormBusUtil float64

	// TargetUtil is min(solo utilization, share + fair share of excess).
	TargetUtil float64
}

// Figure9Result reproduces Figure 9: normalized latency versus
// normalized (target) data bus utilization for all threads of the 4-core
// workloads, and the variance statistic the paper headlines
// (FR-FCFS 0.20 -> FQ-VFTF 0.0058).
type Figure9Result struct {
	Points []ScatterPoint
}

// Figure9 derives the scatter from the Figure 8 runs plus the Figure 4
// solo data.
func (r *Runner) Figure9(f8 Figure8Result) (Figure9Result, error) {
	var out Figure9Result
	for _, o := range f8.Outcomes {
		if o.Policy == "FR-VFTF" {
			continue // the paper plots FR-FCFS and FQ-VFTF
		}
		// Solo utilizations of the workload's threads (Figure 4 data).
		solo := make([]float64, len(o.Workload))
		soloLat := make([]float64, len(o.Workload))
		for i, bench := range o.Workload {
			tr, err := r.Solo(bench, 1)
			if err != nil {
				return out, err
			}
			solo[i] = tr.BusUtil
			soloLat[i] = tr.AvgReadLatency
		}
		targets := TargetUtilizations(solo, 1.0)
		for i, t := range o.Threads {
			p := ScatterPoint{
				Benchmark:  t.Benchmark,
				Policy:     o.Policy,
				TargetUtil: targets[i],
			}
			if soloLat[i] > 0 {
				p.NormLatency = t.ReadLat / soloLat[i]
			}
			if targets[i] > 0 {
				p.NormBusUtil = t.BusUtil / targets[i]
			}
			out.Points = append(out.Points, p)
		}
	}
	return out, nil
}

// TargetUtilizations implements the paper's target data bus utilization:
// each of n threads is allocated an equal share of the capacity; excess
// service is added in equal portions to threads that still demand more
// (below their solo utilization) until all excess is allocated or no
// thread demands more. The result for thread i is
// min(solo_i, share + fair-share-of-excess).
func TargetUtilizations(solo []float64, capacity float64) []float64 {
	n := len(solo)
	if n == 0 {
		return nil
	}
	targets := make([]float64, n)
	share := capacity / float64(n)
	for i := range targets {
		targets[i] = share
		if solo[i] < share {
			targets[i] = solo[i]
		}
	}
	// Iteratively redistribute unused allocation to threads that still
	// demand more.
	for iter := 0; iter < 64; iter++ {
		var excess float64
		var wanting []int
		used := 0.0
		for i := range targets {
			used += targets[i]
		}
		excess = capacity - used
		for i := range targets {
			if solo[i] > targets[i]+1e-12 {
				wanting = append(wanting, i)
			}
		}
		if excess <= 1e-12 || len(wanting) == 0 {
			break
		}
		per := excess / float64(len(wanting))
		for _, i := range wanting {
			add := per
			if targets[i]+add > solo[i] {
				add = solo[i] - targets[i]
			}
			targets[i] += add
		}
	}
	return targets
}

// Variance returns the variance of normalized bus utilization across
// the policy's points (the paper's headline fairness metric).
func (f Figure9Result) Variance(policy string) float64 {
	var xs []float64
	for _, p := range f.Points {
		if p.Policy == policy {
			xs = append(xs, p.NormBusUtil)
		}
	}
	return stats.Variance(xs)
}

// MeanNormUtil returns the mean normalized bus utilization (the paper
// reports .88 for both policies) and its min/max range.
func (f Figure9Result) MeanNormUtil(policy string) (mean, min, max float64) {
	var xs []float64
	for _, p := range f.Points {
		if p.Policy == policy {
			xs = append(xs, p.NormBusUtil)
		}
	}
	return stats.Mean(xs), stats.Min(xs), stats.Max(xs)
}

// Render writes the scatter and summary statistics.
func (f Figure9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: normalized latency vs normalized target bus utilization (4-core threads)\n")
	fmt.Fprintf(w, "%-10s %-8s %8s %8s %8s\n", "benchmark", "policy", "normLat", "normUtil", "target")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-10s %-8s %8.2f %8.2f %8.3f\n", p.Benchmark, p.Policy, p.NormLatency, p.NormBusUtil, p.TargetUtil)
	}
	for _, pol := range []string{"FR-FCFS", "FQ-VFTF"} {
		mean, min, max := f.MeanNormUtil(pol)
		fmt.Fprintf(w, "%s: mean normalized util %.2f, range [%.2f, %.2f], variance %.4f\n",
			pol, mean, min, max, f.Variance(pol))
	}
}
