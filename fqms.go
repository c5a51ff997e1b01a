// Package fqms is a Go reproduction of "Fair Queuing Memory Systems"
// (Nesbit, Aggarwal, Laudon, Smith — MICRO 2006): a cycle-accurate
// DDR2 memory-system simulator with the paper's Fair Queuing memory
// scheduler, the FR-FCFS baseline, trace-driven out-of-order cores with
// private cache hierarchies, twenty synthetic SPEC-2000-like workloads,
// and drivers that regenerate every figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := fqms.Run(fqms.SystemConfig{
//		Workload:  []string{"vpr", "art"},
//		Scheduler: fqms.FQVFTF,
//	})
//
// The scheduler models each hardware thread as running on a private
// "virtual time memory system" whose DDR2 timing is scaled by the
// reciprocal of the thread's bandwidth share, and services requests
// earliest-virtual-finish-time first with a bound on priority-inversion
// blocking time. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package fqms

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scheduler names a memory scheduling policy.
type Scheduler string

// The available schedulers.
const (
	// FCFS services requests strictly in arrival order.
	FCFS Scheduler = "FCFS"
	// FRFCFS is first-ready first-come-first-serve, the paper's
	// single-thread-optimal baseline (Rixner et al.).
	FRFCFS Scheduler = "FR-FCFS"
	// FRVFTF prioritizes earliest virtual finish-time first without the
	// FQ bank rule (the paper's intermediate design point).
	FRVFTF Scheduler = "FR-VFTF"
	// FQVFTF is the paper's Fair Queuing memory scheduler.
	FQVFTF Scheduler = "FQ-VFTF"
	// FRVSTF is the earliest virtual start-time ablation.
	FRVSTF Scheduler = "FR-VSTF"
	// BLISS blacklists threads that stream consecutive requests
	// (Subramanian et al.); shareless.
	BLISS Scheduler = "BLISS"
	// SlowFair boosts the thread with the largest estimated slowdown
	// each window; shareless.
	SlowFair Scheduler = "SLOW-FAIR"
	// BankBW regulates each thread to a per-bank bandwidth budget per
	// window; shareless.
	BankBW Scheduler = "BANK-BW"
)

// Share is a thread's allocated fraction of memory system bandwidth,
// as the rational Num/Den.
type Share = core.Share

// EqualShare returns 1/n, the static equal allocation for an n-core CMP.
func EqualShare(n int) Share { return core.EqualShare(n) }

// Benchmark is a synthetic workload profile standing in for one of the
// paper's SPEC 2000 traces.
type Benchmark = trace.Profile

// Benchmarks returns the twenty-benchmark suite in the paper's Figure 4
// order (most memory-aggressive first).
func Benchmarks() []Benchmark { return trace.Suite() }

// BenchmarkNames returns the suite names in Figure 4 order.
func BenchmarkNames() []string { return trace.Names() }

// BenchmarkByName looks a profile up by name.
func BenchmarkByName(name string) (Benchmark, error) { return trace.ByName(name) }

// FourCoreWorkloads returns the paper's four heterogeneous 4-core
// workloads.
func FourCoreWorkloads() [][]string { return trace.FourCoreWorkloads() }

// Antagonists returns the adversarial and heterogeneous agent profiles
// (streaming accelerator-style agents, row-buffer/bank/bus attackers,
// and the diurnal bursty arrival process). They resolve through
// BenchmarkByName like the SPEC suite.
func Antagonists() []Benchmark { return trace.Antagonists() }

// AntagonistNames returns the antagonist profile names.
func AntagonistNames() []string { return trace.AntagonistNames() }

// DDR2Timing is the DDR2 timing-constraint set (Table 6).
type DDR2Timing = dram.Timing

// DDR2800 returns the paper's Micron DDR2-800 constraints.
func DDR2800() DDR2Timing { return dram.DDR2800() }

// Result is the outcome of one simulation's measurement window.
type Result = sim.Result

// ThreadResult is one thread's measured behavior.
type ThreadResult = sim.ThreadResult

// SystemConfig describes one simulation.
type SystemConfig struct {
	// Workload names one benchmark per core (see BenchmarkNames).
	Workload []string

	// Scheduler selects the memory scheduling policy (default FR-FCFS).
	Scheduler Scheduler

	// Shares allocates memory bandwidth per thread; nil means the
	// paper's static equal allocation 1/N. The shares are fractions of
	// one memory system, so they may sum to at most 1.
	Shares []Share

	// MemoryScale >= 2 time scales the DDR2 constraints, modeling the
	// paper's private virtual-time baseline systems (0 or 1 = physical;
	// at most 549, where a scaled refresh fills its whole interval).
	MemoryScale int

	// Channels selects the number of line-interleaved memory channels
	// (0 or 1 = the paper's single-channel system; more, a power of two
	// up to 16, is this implementation's future-work extension).
	Channels int

	// Warmup and Window are simulation lengths in cycles; zero selects
	// 50k/400k.
	Warmup, Window int64

	// Seed perturbs the deterministic trace generators.
	Seed uint64

	// Audit attaches the runtime invariant auditor: every SDRAM command
	// and completed request is re-validated against independently
	// recomputed timing, conservation, VTMS, and FQ scheduling
	// invariants; a violation panics. Results are identical either way.
	Audit bool

	// Interference enables per-request delay attribution: the live
	// System's Interference method then reports the who-delayed-whom
	// matrix and its per-cause breakdown. Observation-only — results
	// are bit-identical with it on or off.
	Interference bool
}

// Run simulates the configured system and reports per-thread and
// aggregate results.
func Run(cfg SystemConfig) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	warmup, window := cfg.Warmup, cfg.Window
	if warmup <= 0 {
		warmup = 50_000
	}
	if window <= 0 {
		window = 400_000
	}
	if err := sys.RunTo(warmup, warmup+window, 0, nil); err != nil {
		return Result{}, err
	}
	return sys.Results(), nil
}

// System is a live simulation that can be stepped, measured, and
// reconfigured (dynamic share reassignment) between steps.
type System = sim.System

// NewSystem constructs a system from the same configuration Run uses,
// but leaves stepping to the caller: use Step, BeginMeasurement,
// Results, and SetShare. A configuration that does not describe a
// memory system -- an unknown name, shares summing past 1, a negative or
// oversized channel count or memory scale -- is an error.
func NewSystem(cfg SystemConfig) (*System, error) {
	scfg, err := sim.NamedConfig(cfg.Workload, string(cfg.Scheduler), cfg.Shares, cfg.Channels, cfg.MemoryScale)
	if err != nil {
		return nil, err
	}
	scfg.Seed = cfg.Seed
	scfg.Audit = cfg.Audit
	scfg.Interference = cfg.Interference
	return sim.New(scfg)
}

// ExperimentRunner regenerates the paper's figures; see the Figure1,
// Figure4, TwoCore (Figures 5-7), Figure8, and Figure9 methods, and All
// for the complete report.
type ExperimentRunner = exp.Runner

// ExperimentConfig sizes the experiment simulations.
type ExperimentConfig = exp.Config

// NewExperimentRunner returns a runner; zero-valued config selects the
// default measurement windows.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner {
	return exp.NewRunner(cfg)
}
