// Package exp reproduces the paper's evaluation: every figure of
// Section 4 has a driver that assembles the workloads, runs the
// simulator with the appropriate schedulers and baselines, and reports
// the same rows/series the paper plots. DESIGN.md maps each figure to
// its driver; EXPERIMENTS.md records paper-versus-measured values.
package exp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config controls simulation lengths for all experiments.
type Config struct {
	// Warmup and Window are the per-run warmup and measurement cycles.
	Warmup, Window int64

	// Seed perturbs the trace generators.
	Seed uint64

	// Parallel is the sweep's width: the number of simulations in
	// flight at once (0 = runtime.GOMAXPROCS(0); the runs are CPU-bound,
	// independent and deterministic).
	Parallel int

	// Audit runs every simulation under the runtime invariant auditor
	// (see internal/audit); results are identical, violations panic.
	Audit bool

	// Interference runs every simulation with delay attribution on
	// (sim.Config.Interference): results stay bit-identical, each run's
	// artifact set gains an interference member, and arena rows carry an
	// interference_index column.
	Interference bool

	// SampleInterval > 0 samples every run's metrics on epoch
	// boundaries (cycles); results stay bit-identical and each run's
	// artifact set gains the series and fairness members.
	SampleInterval int64

	// Progress, when non-nil, is credited with each run's simulated
	// cycles (memoized recalls are not re-counted) so a status server
	// can report sweep throughput.
	Progress *telemetry.Progress

	// Dir, when non-empty, receives every completed run's artifact set
	// (artifacts.go), named by memo key, and the run's checkpoint while
	// it executes.
	Dir string

	// CheckpointEvery > 0, with Dir, makes every run crash-resilient:
	// the simulator checkpoints its complete state into Dir every that
	// many cycles (atomically, via temp file + rename), or to
	// CheckpointSink when one is set; completing the run retires the
	// checkpoint.
	CheckpointEvery int64

	// Resume, with Dir, picks every run up where a previous (killed)
	// sweep left it: a run whose whole artifact set is present is
	// recalled without re-simulating, and an interrupted run restores
	// from its checkpoint and simulates only the remaining cycles.
	// Resumed runs are bit-identical to uninterrupted ones — same
	// Results, same artifacts, byte for byte.
	Resume bool

	// CheckpointSink, when non-nil, is where every checkpoint goes in
	// place of the file in Dir: the sink receives the run's memo key,
	// the checkpointed cycle, and the raw snapshot bytes, and is the
	// persistence. data is valid only during the call — the runner
	// encodes the run's next checkpoint over it. A sink error aborts the
	// run with that error. The fabric worker (internal/fabric) uses this
	// to upload each checkpoint to its coordinator inside the same lease
	// heartbeat, so a kill -9'd worker's chunk resumes elsewhere from
	// the last uploaded state.
	CheckpointSink func(key string, cycle int64, data []byte) error
}

// DefaultCheckpointEvery is the fabric's chunk epoch when a job names
// none: frequent enough that a killed worker loses at most a second or
// two of simulation.
const DefaultCheckpointEvery int64 = 100_000

// DefaultConfig returns measurement windows long enough for stable
// figures (a few seconds per multi-core run).
func DefaultConfig() Config {
	return Config{Warmup: 50_000, Window: 400_000}
}

// QuickConfig returns short windows for tests.
func QuickConfig() Config {
	return Config{Warmup: 20_000, Window: 120_000}
}

// Runner executes experiments, memoizing runs shared between figures
// (solo runs feed Figures 4, 5, 8, and 9).
type Runner struct {
	cfg Config

	mu        sync.Mutex
	memo      map[string]*memoRun
	simCycles int64

	// stopAfterCheckpoints is a test hook: when > 0, the runner aborts
	// with errStopped after writing that many checkpoint files,
	// emulating a sweep killed mid-run.
	stopAfterCheckpoints int
}

// memoRun is one key's run. The first caller of a key owns the entry,
// simulates, and closes done; every other caller waits on done and
// shares the outcome, so a key simulates (and writes its artifact
// files) exactly once however many goroutines ask for it together.
type memoRun struct {
	done chan struct{}
	res  sim.Result
	intf *InterferenceDoc // nil unless the run attributed delays
	err  error
}

// errStopped is returned when the stopAfterCheckpoints test hook fires.
var errStopped = errors.New("exp: stopped by checkpoint hook")

// SimulatedCycles returns the total cycles actually simulated so far
// (memoized recalls are not double-counted). cmd/experiments uses the
// delta across a figure to report simulated-cycles-per-second.
func (r *Runner) SimulatedCycles() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCycles
}

// NewRunner returns a Runner over the given configuration.
func NewRunner(cfg Config) *Runner {
	def := DefaultConfig()
	if cfg.Warmup <= 0 {
		cfg.Warmup = def.Warmup
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.Dir == "" {
		// Both act on Dir; without one they are off.
		cfg.Resume, cfg.CheckpointEvery = false, 0
	}
	return &Runner{cfg: cfg, memo: make(map[string]*memoRun)}
}

// policies are the schedulers the evaluation compares.
var policies = []string{"FR-FCFS", "FR-VFTF", "FQ-VFTF"}

// PolicyNames returns the evaluation's scheduler names in order.
func PolicyNames() []string { return append([]string(nil), policies...) }

// run executes (or recalls) one simulation.
func (r *Runner) run(key string, cfg sim.Config) (sim.Result, error) {
	r.mu.Lock()
	e, recalled := r.memo[key]
	if !recalled {
		e = &memoRun{done: make(chan struct{})}
		r.memo[key] = e
	}
	r.mu.Unlock()
	if recalled {
		<-e.done
		return e.res, e.err
	}
	e.res, e.intf, e.err = r.simulate(key, cfg)
	if e.err != nil {
		// Failures are not memoized: the callers already waiting see
		// this error, a later call retries.
		e.err = fmt.Errorf("exp: run %s: %w", key, e.err)
		r.mu.Lock()
		delete(r.memo, key)
		r.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// simulate produces one key's outcome: recalled from a previous
// sweep's artifact set when resuming and every member the configuration
// calls for is there, otherwise simulated (from the key's checkpoint if
// one survives) with the set written.
func (r *Runner) simulate(key string, cfg sim.Config) (sim.Result, *InterferenceDoc, error) {
	if r.cfg.Resume {
		if set, err := ReadArtifacts(r.cfg.Dir, r.cfg.ArtifactNames(key)); err == nil {
			if res, doc, err := DecodeArtifacts(set); err == nil {
				return res, doc, nil
			}
		}
	}

	cfg.Seed = r.cfg.Seed
	cfg.Audit = cfg.Audit || r.cfg.Audit
	cfg.Interference = cfg.Interference || r.cfg.Interference
	cfg.SampleInterval = r.cfg.SampleInterval
	sys, stepped, err := r.runSim(key, cfg)
	if err != nil {
		return sim.Result{}, nil, err
	}
	defer sys.Close()
	fin := finished{key: key, sys: sys, res: sys.Results()}
	if snap, ok := sys.Interference(); ok {
		fin.intf = &InterferenceDoc{Key: key, Policy: fin.res.PolicyName, Interference: snap}
	}
	if r.cfg.Dir != "" {
		set, err := r.cfg.renderArtifacts(fin)
		if err != nil {
			return sim.Result{}, nil, err
		}
		if err := WriteArtifacts(r.cfg.Dir, set); err != nil {
			return sim.Result{}, nil, fmt.Errorf("persist: %w", err)
		}
		os.Remove(r.checkpointPath(key))
	}
	if r.cfg.Progress != nil {
		r.cfg.Progress.AddCycles(stepped)
	}
	r.mu.Lock()
	r.simCycles += stepped
	r.mu.Unlock()
	return fin.res, fin.intf, nil
}

// runSim builds one simulation (restored from the key's checkpoint when
// resuming and one exists) and drives it to completion, checkpointing
// into Dir every CheckpointEvery cycles when both are set. It
// returns the cycles actually simulated in this process (less than
// warmup+window for a resumed run).
func (r *Runner) runSim(key string, cfg sim.Config) (*sim.System, int64, error) {
	var (
		sys     *sim.System
		atChunk func() (int64, error)
	)
	ckpt := r.checkpointPath(key)
	var buf bytes.Buffer // the run's one encode buffer, reused every epoch
	if r.cfg.Resume {
		if _, err := os.Stat(ckpt); err == nil {
			if sys, err = sim.RestoreFile(cfg, ckpt); err != nil {
				return nil, 0, fmt.Errorf("restore %s: %w", ckpt, err)
			}
		}
	}
	if r.cfg.CheckpointEvery > 0 {
		if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
			return nil, 0, err
		}
		atChunk = func() (int64, error) {
			if err := r.writeCheckpoint(key, ckpt, sys, &buf); err != nil {
				return 0, fmt.Errorf("checkpoint %s: %w", ckpt, err)
			}
			if r.noteCheckpoint() {
				return 0, errStopped
			}
			return r.cfg.CheckpointEvery, nil
		}
	}
	if sys == nil {
		var err error
		if sys, err = sim.New(cfg); err != nil {
			return nil, 0, err
		}
	}
	start, total := sys.Cycle(), r.cfg.Warmup+r.cfg.Window
	if err := sys.RunTo(r.cfg.Warmup, total, r.cfg.CheckpointEvery, atChunk); err != nil {
		sys.Close()
		return nil, 0, err
	}
	return sys, total - start, nil
}

// writeCheckpoint persists one checkpoint: to the sink when one is set,
// encoded into buf (the bytes are the sink's only for the call; the next
// epoch overwrites them), otherwise to path by the simulator's atomic
// CheckpointFile.
func (r *Runner) writeCheckpoint(key, path string, sys *sim.System, buf *bytes.Buffer) error {
	if r.cfg.CheckpointSink == nil {
		return sys.CheckpointFile(path)
	}
	buf.Reset()
	if err := sys.Checkpoint(buf); err != nil {
		return err
	}
	return r.cfg.CheckpointSink(key, sys.Cycle(), buf.Bytes())
}

// noteCheckpoint implements the stopAfterCheckpoints test hook.
func (r *Runner) noteCheckpoint() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopAfterCheckpoints == 0 {
		return false
	}
	r.stopAfterCheckpoints--
	return r.stopAfterCheckpoints == 0
}

func (r *Runner) checkpointPath(key string) string {
	return filepath.Join(r.cfg.Dir, CheckpointName(key))
}

// Solo runs one benchmark alone on a system whose memory timing is
// uniformly scaled by the integer factor scale. scale=1 is the physical
// system (Figure 4); scale=N is the paper's private virtual-time
// baseline for an N-processor CMP.
func (r *Runner) Solo(bench string, scale int) (sim.ThreadResult, error) {
	cfg, err := sim.NamedConfig([]string{bench}, "", nil, 0, scale)
	if err != nil {
		return sim.ThreadResult{}, err
	}
	res, err := r.run(fmt.Sprintf("solo/%s/x%d", bench, scale), cfg)
	if err != nil {
		return sim.ThreadResult{}, err
	}
	return res.Threads[0], nil
}

// CoRun runs the benchmarks together under the named policy on the
// physical memory system with equal shares.
func (r *Runner) CoRun(benches []string, policy string) (sim.Result, error) {
	cfg, err := sim.NamedConfig(benches, policy, nil, 0, 0)
	if err != nil {
		return sim.Result{}, err
	}
	return r.run(fmt.Sprintf("co/%s/%s", strings.Join(benches, "+"), policy), cfg)
}

// parallelDo runs fn(i) for i in [0, n) at the runner's width. All
// failures are reported, joined with errors.Join — returning only the
// first would hide independent failures from the other workers
// (distinct workloads can fail for distinct reasons, and the caller
// sees them all at once).
func (r *Runner) parallelDo(n int, fn func(i int) error) error {
	return parallelDo(r.cfg.Parallel, n, fn)
}

// parallelDo runs fn(i) for i in [0, n) on min(width, n) worker
// goroutines pulling indices from a shared counter. The goroutine
// count is the only bound on simulations in flight: a worker either
// simulates or waits for another worker's run of the same key.
func parallelDo(width, n int, fn func(i int) error) error {
	if width <= 0 || width > n {
		width = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// allBenchmarks returns the suite names in Figure 4 order.
func allBenchmarks() []string { return trace.Names() }

// subjectBenchmarks returns the Figure 5 subjects: every suite
// benchmark except the background thread (art), in Figure 4 order.
func subjectBenchmarks() []string {
	var out []string
	for _, n := range trace.Names() {
		if n != "art" {
			out = append(out, n)
		}
	}
	return out
}

// sortedKeys is a test hook: the memo keys of everything run so far.
func (r *Runner) sortedKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.memo))
	for k := range r.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
