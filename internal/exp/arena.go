package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/trace"
)

// Policy arena: the paper's FQ-VFTF is the 2006 point in a scheduler
// lineage, and the arena races it against its successors — BLISS
// (interval blacklisting), SLOW-FAIR (slowdown-balancing), BANK-BW
// (per-bank budgets) — plus the FR-FCFS/FR-VFTF baselines, across
// workload mixes, share splits, and channel counts. Each cell reduces
// to the two axes the lineage argues about: system throughput
// (weighted speedup against the paper's scaled private baseline) and
// fairness (max-slowdown balance), with the per-cell Pareto frontier
// marked so the tradeoff reads as a measured frontier rather than a
// single claim.

// arenaPolicies are the contenders. This is deliberately distinct from
// the `policies` list in runner.go, which feeds the paper-figure row
// counts and their golden files and must not grow.
var arenaPolicies = []string{"FR-FCFS", "FR-VFTF", "FQ-VFTF", "BLISS", "SLOW-FAIR", "BANK-BW"}

// ArenaSpec describes the sweep axes: every policy runs on every
// (mix, share split, channel count) cell.
type ArenaSpec struct {
	// Mixes are the co-run workloads, one benchmark name per core.
	Mixes [][]string

	// Shares are thread 0's allocations; the remaining threads split
	// the rest evenly. The zero Share means the paper's static equal
	// allocation. Shareless policies (BLISS, SLOW-FAIR, BANK-BW)
	// ignore the split — the arena shows them not moving.
	Shares []core.Share

	// Channels are the memory-channel counts to sweep.
	Channels []int
}

// DefaultArenaSpec sweeps the paper's headline two-core pair, its
// first four-core workload, and two adversarial pairs (vpr against the
// sequential bus hog and against the bank-conflict attacker) over
// equal and 3/4-skewed allocations on one and two channels: 6 policies
// x 4 mixes x 2 shares x 2 channels. The antagonist mixes put the
// isolation property on the arena's fairness axis: FQ-VFTF holds the
// victim's slowdown bounded where the lineage's interval heuristics
// only soften the attack.
func DefaultArenaSpec() ArenaSpec {
	return ArenaSpec{
		Mixes: [][]string{
			{"vpr", "art"},
			trace.FourCoreWorkloads()[0],
			{"vpr", "bushog"},
			{"vpr", "bankhammer"},
		},
		Shares:   []core.Share{{}, {Num: 3, Den: 4}},
		Channels: []int{1, 2},
	}
}

// ArenaRow is one (policy, mix, share, channels) cell of the arena.
type ArenaRow struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"` // "+"-joined benchmark names
	Share0   string `json:"share0"`   // thread 0's allocation ("eq" = equal)
	Channels int    `json:"channels"`

	// WeightedSpeedup is the throughput axis: the sum over threads of
	// IPC_shared / IPC_alone, where alone is the paper's private
	// baseline (the benchmark solo on the same channel count with
	// memory timing scaled by the thread count).
	WeightedSpeedup float64 `json:"weighted_speedup"`

	// MaxSlowdown and FairnessIndex are the fairness axis: slowdown_i
	// = IPC_alone / IPC_shared, MaxSlowdown its maximum, and
	// FairnessIndex = min slowdown / max slowdown in (0, 1] (1 means
	// every thread suffers equally).
	MaxSlowdown   float64 `json:"max_slowdown"`
	FairnessIndex float64 `json:"fairness_index"`

	// SumIPC and BusUtil are the raw aggregate throughput of the cell.
	SumIPC  float64 `json:"sum_ipc"`
	BusUtil float64 `json:"bus_util"`

	// InterferenceIndex is the fraction of the cell's attributed wait
	// cycles charged to a different thread (delay attribution's Cross /
	// Total); 0 when the sweep ran without Config.Interference.
	InterferenceIndex float64 `json:"interference_index"`

	// Pareto marks the rows on the fairness-vs-throughput frontier of
	// their (mix, share, channels) cell group: no other policy in the
	// group is at least as good on both axes and better on one.
	Pareto bool `json:"pareto"`
}

// ArenaResult is the full sweep, grouped cell-major: rows iterate
// mixes, then shares, then channels, then policies, so each contiguous
// len(arenaPolicies) block is one frontier group.
type ArenaResult struct {
	Spec ArenaSpec  `json:"spec"`
	Rows []ArenaRow `json:"rows"`
}

// shareLabel renders thread 0's allocation for keys and tables.
func shareLabel(s core.Share) string {
	if s == (core.Share{}) {
		return "eq"
	}
	return fmt.Sprintf("%d-%d", s.Num, s.Den)
}

// arenaShares expands thread 0's allocation to a full share vector
// (nil for the equal split, which sim defaults to 1/N).
func arenaShares(s0 core.Share, n int) []core.Share {
	if s0 == (core.Share{}) {
		return nil
	}
	shares := make([]core.Share, n)
	shares[0] = s0
	for i := 1; i < n; i++ {
		shares[i] = core.Share{Num: s0.Den - s0.Num, Den: s0.Den * (n - 1)}
	}
	return shares
}

// Arena runs the sweep: the spec's units (solo baselines first — cells
// share them, and memoizing them up front keeps the parallel cell
// fan-out from simulating the same solo twice) execute on the runner's
// worker budget, then ReduceArena folds the memoized Results into
// cell-major rows (see ArenaResult) with each group's Pareto frontier
// marked. The fabric coordinator runs the same units on remote workers
// and the same reduction over their uploaded results, which is why a
// sharded sweep's arena artifacts are byte-identical to this path's.
func (r *Runner) Arena(spec ArenaSpec) (ArenaResult, error) {
	var solos, cells []Unit
	for _, u := range ArenaUnits(spec) {
		if u.Solo() {
			solos = append(solos, u)
		} else {
			cells = append(cells, u)
		}
	}
	if err := r.parallelDo(len(solos), func(i int) error {
		_, err := r.RunUnit(solos[i])
		return err
	}); err != nil {
		return ArenaResult{Spec: spec}, err
	}
	if err := r.parallelDo(len(cells), func(i int) error {
		_, err := r.RunUnit(cells[i])
		return err
	}); err != nil {
		return ArenaResult{Spec: spec}, err
	}
	// Every unit is memoized now; the reduction just recalls them.
	var intf InterferenceGetter
	if r.cfg.Interference {
		intf = r.UnitInterference
	}
	return ReduceArena(spec, r.RunUnit, intf)
}

// Render writes the arena as a text table, one frontier group per
// block, Pareto rows starred.
func (a ArenaResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Policy arena (extension): post-2006 scheduler lineage\n")
	fmt.Fprintf(w, "throughput = weighted speedup vs the scaled private baseline;\n")
	fmt.Fprintf(w, "fairness = min/max slowdown; * = on the cell's Pareto frontier\n\n")
	for g := 0; g < len(a.Rows); g += len(arenaPolicies) {
		group := a.Rows[g : g+len(arenaPolicies)]
		h := group[0]
		fmt.Fprintf(w, "%s  share0=%s  channels=%d\n", h.Workload, h.Share0, h.Channels)
		fmt.Fprintf(w, "  %-10s %9s %9s %9s %8s %8s\n",
			"policy", "wspeedup", "maxslow", "fairness", "sumIPC", "busUtil")
		for _, r := range group {
			star := " "
			if r.Pareto {
				star = "*"
			}
			fmt.Fprintf(w, "%s %-10s %9.3f %9.3f %9.3f %8.3f %8.3f\n",
				star, r.Policy, r.WeightedSpeedup, r.MaxSlowdown, r.FairnessIndex,
				r.SumIPC, r.BusUtil)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits the arena scatter points, one row per cell.
func (a ArenaResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(a.Rows))
	for _, r := range a.Rows {
		pareto := "0"
		if r.Pareto {
			pareto = "1"
		}
		rows = append(rows, []string{
			r.Workload, r.Share0, fmt.Sprint(r.Channels), r.Policy,
			f(r.WeightedSpeedup), f(r.MaxSlowdown), f(r.FairnessIndex),
			f(r.SumIPC), f(r.BusUtil), f(r.InterferenceIndex), pareto,
		})
	}
	return writeCSV(w, []string{
		"workload", "share0", "channels", "policy",
		"weighted_speedup", "max_slowdown", "fairness_index",
		"sum_ipc", "bus_util", "interference_index", "pareto",
	}, rows)
}

// ArtifactJSON renders the arena.json artifact bytes.
func (a ArenaResult) ArtifactJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Artifacts renders the two files a sweep leaves beside its runs'
// artifact sets, arena.csv and arena.json. cmd/experiments and the
// fabric merge both emit through here, so the two paths' files can
// only agree or both be wrong.
func (a ArenaResult) Artifacts() ([]Artifact, error) {
	var csv bytes.Buffer
	if err := a.WriteCSV(&csv); err != nil {
		return nil, err
	}
	js, err := a.ArtifactJSON()
	if err != nil {
		return nil, err
	}
	return []Artifact{{Name: "arena.csv", Data: csv.Bytes()}, {Name: "arena.json", Data: js}}, nil
}
