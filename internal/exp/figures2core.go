package exp

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

// Figure1Row is one bar group of Figure 1: vpr's IPC and average memory
// read latency in one co-schedule under FR-FCFS.
type Figure1Row struct {
	Scenario string // "alone", "with crafty", "with art"
	IPC      float64
	RelIPC   float64 // IPC relative to running alone
	ReadLat  float64
	BusUtil  float64
}

// Figure1Result reproduces Figure 1: benchmark vpr alone and co-scheduled
// with crafty and with art on a dual-processor CMP under FR-FCFS.
type Figure1Result struct {
	Rows []Figure1Row
}

// Figure1 runs the Figure 1 experiment.
func (r *Runner) Figure1() (Figure1Result, error) {
	var out Figure1Result
	solo, err := r.Solo("vpr", 1)
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, Figure1Row{
		Scenario: "alone", IPC: solo.IPC, RelIPC: 1,
		ReadLat: solo.AvgReadLatency, BusUtil: solo.BusUtil,
	})
	for _, bg := range []string{"crafty", "art"} {
		res, err := r.CoRun([]string{"vpr", bg}, "FR-FCFS")
		if err != nil {
			return out, err
		}
		v := res.Threads[0]
		out.Rows = append(out.Rows, Figure1Row{
			Scenario: "with " + bg, IPC: v.IPC, RelIPC: v.IPC / solo.IPC,
			ReadLat: v.AvgReadLatency, BusUtil: v.BusUtil,
		})
	}
	return out, nil
}

// Render writes the figure as a text table.
func (f Figure1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: vpr with FR-FCFS on a 2-core CMP (shared memory only)\n")
	fmt.Fprintf(w, "%-12s %8s %8s %10s %8s\n", "scenario", "IPC", "relIPC", "readLat", "busUtil")
	for _, row := range f.Rows {
		fmt.Fprintf(w, "%-12s %8.3f %8.2f %10.0f %8.3f\n",
			row.Scenario, row.IPC, row.RelIPC, row.ReadLat, row.BusUtil)
	}
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

// Figure4Row is one benchmark's solo behavior on the physical system.
type Figure4Row struct {
	Benchmark  string
	BusUtil    float64
	IPC        float64
	ReadLat    float64
	ReadLatP50 float64
	ReadLatP95 float64
	ReadLatP99 float64
}

// Figure4Result reproduces Figure 4: data bus utilization of the twenty
// benchmarks running alone under FR-FCFS, ordered most aggressive first.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4 runs the Figure 4 experiment.
func (r *Runner) Figure4() (Figure4Result, error) {
	names := allBenchmarks()
	rows := make([]Figure4Row, len(names))
	err := r.parallelDo(len(names), func(i int) error {
		tr, err := r.Solo(names[i], 1)
		if err != nil {
			return err
		}
		rows[i] = Figure4Row{
			Benchmark: names[i], BusUtil: tr.BusUtil, IPC: tr.IPC, ReadLat: tr.AvgReadLatency,
			ReadLatP50: tr.ReadLatP50, ReadLatP95: tr.ReadLatP95, ReadLatP99: tr.ReadLatP99,
		}
		return nil
	})
	return Figure4Result{Rows: rows}, err
}

// Render writes the figure as a text table.
func (f Figure4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: solo data bus utilization (FR-FCFS), most aggressive first\n")
	fmt.Fprintf(w, "%-10s %8s %8s %9s\n", "benchmark", "busUtil", "IPC", "readLat")
	for _, row := range f.Rows {
		fmt.Fprintf(w, "%-10s %8.3f %8.3f %9.0f\n", row.Benchmark, row.BusUtil, row.IPC, row.ReadLat)
	}
}

// ---------------------------------------------------------------------
// Figures 5, 6, 7 (one set of 2-core runs)
// ---------------------------------------------------------------------

// SubjectRow is one subject benchmark's outcome under one scheduler when
// co-scheduled with the art background thread.
type SubjectRow struct {
	Subject string
	Policy  string

	// NormIPC is the subject's IPC normalized to the same benchmark
	// running alone on a private memory system time scaled by 2 (the
	// paper's QoS baseline); >= 1 meets the QoS objective.
	NormIPC float64

	// ReadLat is the subject's average memory read latency (cycles);
	// the P50/P95/P99 fields are the distribution's percentiles (the
	// priority-inversion analysis cares about the tail, not the mean).
	ReadLat    float64
	ReadLatP50 float64
	ReadLatP95 float64
	ReadLatP99 float64

	// BusUtil is the subject's share of peak data bus bandwidth.
	BusUtil float64

	// BgNormIPC is the background (art) thread's normalized IPC
	// (Figure 6).
	BgNormIPC float64

	// AggBusUtil and AggBankUtil are system-wide utilizations
	// (Figure 7, middle and bottom).
	AggBusUtil  float64
	AggBankUtil float64

	// HMNormIPC is the harmonic mean of the two threads' normalized
	// IPCs (Figure 7's performance metric).
	HMNormIPC float64
}

// TwoCoreResult holds the complete Figure 5/6/7 data: 19 subjects x 3
// schedulers, every subject co-scheduled with art.
type TwoCoreResult struct {
	Rows []SubjectRow // ordered by subject (Figure 4 order), then policy
}

// TwoCore runs the Figure 5/6/7 experiment set.
func (r *Runner) TwoCore() (TwoCoreResult, error) {
	subjects := subjectBenchmarks()
	type cell struct {
		rows [3]SubjectRow
	}
	cells := make([]cell, len(subjects))
	err := r.parallelDo(len(subjects), func(i int) error {
		sub := subjects[i]
		subBase, err := r.Solo(sub, 2)
		if err != nil {
			return err
		}
		bgBase, err := r.Solo("art", 2)
		if err != nil {
			return err
		}
		for pi, pol := range policies {
			res, err := r.CoRun([]string{sub, "art"}, pol)
			if err != nil {
				return err
			}
			s, bg := res.Threads[0], res.Threads[1]
			norm := s.IPC / subBase.IPC
			bgNorm := bg.IPC / bgBase.IPC
			cells[i].rows[pi] = SubjectRow{
				Subject:     sub,
				Policy:      pol,
				NormIPC:     norm,
				ReadLat:     s.AvgReadLatency,
				ReadLatP50:  s.ReadLatP50,
				ReadLatP95:  s.ReadLatP95,
				ReadLatP99:  s.ReadLatP99,
				BusUtil:     s.BusUtil,
				BgNormIPC:   bgNorm,
				AggBusUtil:  res.DataBusUtil,
				AggBankUtil: res.BankUtil,
				HMNormIPC:   stats.HarmonicMean([]float64{norm, bgNorm}),
			}
		}
		return nil
	})
	if err != nil {
		return TwoCoreResult{}, err
	}
	var out TwoCoreResult
	for i := range cells {
		out.Rows = append(out.Rows, cells[i].rows[:]...)
	}
	return out, nil
}

// ByPolicy returns the rows for one scheduler, in subject order.
func (t TwoCoreResult) ByPolicy(policy string) []SubjectRow {
	var out []SubjectRow
	for _, row := range t.Rows {
		if row.Policy == policy {
			out = append(out, row)
		}
	}
	return out
}

// QoSCount returns how many of the subjects meet the QoS objective
// (normalized IPC >= threshold) under the given policy. The paper uses
// 1.0 as the objective and reports FQ-VFTF meets it on 18 of 19
// workloads, with vpr at 0.94.
func (t TwoCoreResult) QoSCount(policy string, threshold float64) (met, total int) {
	for _, row := range t.ByPolicy(policy) {
		total++
		if row.NormIPC >= threshold {
			met++
		}
	}
	return met, total
}

// Improvement returns the mean and maximum relative improvement of the
// harmonic-mean performance metric of policy over the baseline policy
// across subjects (Figure 7, top).
func (t TwoCoreResult) Improvement(policy, baseline string) (mean, max float64) {
	p, b := t.ByPolicy(policy), t.ByPolicy(baseline)
	if len(p) == 0 || len(p) != len(b) {
		return 0, 0
	}
	var impr []float64
	for i := range p {
		impr = append(impr, p[i].HMNormIPC/b[i].HMNormIPC-1)
	}
	return stats.Mean(impr), stats.Max(impr)
}

// MeanNormIPC returns the arithmetic mean of the subjects' normalized
// IPCs under the policy (the paper quotes .62 for FR-FCFS, .87 for
// FR-VFTF, and 1.10 for FQ-VFTF -- harmonic/arithmetic per context; we
// report both).
func (t TwoCoreResult) MeanNormIPC(policy string) (arith, harmonic float64) {
	var xs []float64
	for _, row := range t.ByPolicy(policy) {
		xs = append(xs, row.NormIPC)
	}
	return stats.Mean(xs), stats.HarmonicMean(xs)
}

// MeanAggBusUtil returns the mean aggregate data bus utilization across
// subjects under the policy (Figure 7, middle; paper: ~96% FR-FCFS, 94%
// FR-VFTF, 92% FQ-VFTF).
func (t TwoCoreResult) MeanAggBusUtil(policy string) float64 {
	var xs []float64
	for _, row := range t.ByPolicy(policy) {
		xs = append(xs, row.AggBusUtil)
	}
	return stats.Mean(xs)
}

// MeanAggBankUtil returns the mean aggregate bank utilization (Figure 7,
// bottom).
func (t TwoCoreResult) MeanAggBankUtil(policy string) float64 {
	var xs []float64
	for _, row := range t.ByPolicy(policy) {
		xs = append(xs, row.AggBankUtil)
	}
	return stats.Mean(xs)
}

// RenderFigure5 writes the subject-side table (Figure 5).
func (t TwoCoreResult) RenderFigure5(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: subject thread vs art background (2-core, phi=1/2)\n")
	fmt.Fprintf(w, "%-10s", "subject")
	for _, p := range PolicyNames() {
		fmt.Fprintf(w, " | %-8s normIPC lat  util", p)
	}
	fmt.Fprintln(w)
	subjects := subjectBenchmarks()
	for _, sub := range subjects {
		fmt.Fprintf(w, "%-10s", sub)
		for _, p := range PolicyNames() {
			for _, row := range t.Rows {
				if row.Subject == sub && row.Policy == p {
					fmt.Fprintf(w, " | %8s %7.2f %4.0f %5.3f", "", row.NormIPC, row.ReadLat, row.BusUtil)
				}
			}
		}
		fmt.Fprintln(w)
	}
	for _, p := range PolicyNames() {
		a, h := t.MeanNormIPC(p)
		met, total := t.QoSCount(p, 1.0)
		fmt.Fprintf(w, "%s: mean normIPC %.2f (harmonic %.2f), QoS met %d/%d\n", p, a, h, met, total)
	}
}

// RenderFigure6 writes the background-thread table (Figure 6).
func (t TwoCoreResult) RenderFigure6(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: background (art) normalized IPC per subject workload\n")
	fmt.Fprintf(w, "%-10s", "subject")
	for _, p := range PolicyNames() {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for _, sub := range subjectBenchmarks() {
		fmt.Fprintf(w, "%-10s", sub)
		for _, p := range PolicyNames() {
			for _, row := range t.Rows {
				if row.Subject == sub && row.Policy == p {
					fmt.Fprintf(w, " %9.2f", row.BgNormIPC)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure7 writes the aggregate table (Figure 7).
func (t TwoCoreResult) RenderFigure7(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: aggregate performance and utilization (2-core)\n")
	fmt.Fprintf(w, "%-10s", "subject")
	for _, p := range PolicyNames() {
		fmt.Fprintf(w, " | %-7s HM  bus  bank", p)
	}
	fmt.Fprintln(w)
	for _, sub := range subjectBenchmarks() {
		fmt.Fprintf(w, "%-10s", sub)
		for _, p := range PolicyNames() {
			for _, row := range t.Rows {
				if row.Subject == sub && row.Policy == p {
					fmt.Fprintf(w, " | %7s%.2f %.2f %.2f", "", row.HMNormIPC, row.AggBusUtil, row.AggBankUtil)
				}
			}
		}
		fmt.Fprintln(w)
	}
	for _, p := range []string{"FR-VFTF", "FQ-VFTF"} {
		mean, max := t.Improvement(p, "FR-FCFS")
		fmt.Fprintf(w, "%s vs FR-FCFS: avg improvement %+.0f%%, best %+.0f%%\n", p, mean*100, max*100)
	}
	for _, p := range PolicyNames() {
		fmt.Fprintf(w, "%s: mean aggregate bus util %.2f, bank util %.2f\n",
			p, t.MeanAggBusUtil(p), t.MeanAggBankUtil(p))
	}
}
