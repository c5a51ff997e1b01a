package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workload is one set of inputs. BENCHMARK.json and README.md say why
// each exists; the sizes are for about two measured seconds per repeat on
// a two-core shared host, so that about seven repeats fit one run.
type workload struct {
	name string

	// Single-simulation workloads: the mix (one benchmark per core), the
	// channel count, whether every production observer is attached, and
	// the warm-up and measured cycle counts.
	mix      []string
	channels int
	observed bool
	policies bool // the traced pass also runs the mix under the other five policies
	par      bool // the traced pass also runs the mix on width workers
	warmup   int64
	measured int64

	// Sweep workloads.
	figures bool // exp.Runner.All over the paper's figures
	fabric  bool // the arena sweep through coordinator + workers
}

var workloads = []workload{
	{name: "heavy-art4", mix: []string{"art", "art", "art", "art"}, channels: 1, policies: true, warmup: 200_000, measured: 1_600_000},
	{name: "light-crafty4", mix: []string{"crafty", "crafty", "crafty", "crafty"}, channels: 1, warmup: 200_000, measured: 2_000_000},
	{name: "chan4-art4", mix: []string{"art", "art", "art", "art"}, channels: 4, par: true, warmup: 200_000, measured: 600_000},
	{name: "observed-artvpr", mix: []string{"art", "vpr"}, channels: 1, observed: true, warmup: 200_000, measured: 2_000_000},
	// The timed sweeps run at half and quarter of exp.QuickConfig's
	// windows so that three repeats fit one run; the traced pass runs
	// them once at QuickConfig, where the goldens are pinned.
	{name: "figures-all", figures: true, warmup: 10_000, measured: 60_000},
	{name: "fabric-arena", fabric: true, warmup: 5_000, measured: 30_000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minRepeats is the floor on repeats per run; a run keeps repeating
// until its seconds are used.
const minRepeats = 3

// cycles returns the workload's warm-up and measured cycle counts at the
// run's size.
func (r *run) cycles() (warmup, measured int64) {
	return r.wl.warmup / r.shrink, r.wl.measured / r.shrink
}

// observers selects what is attached to a simulation besides the model.
type observers struct {
	registry, sampler, chrometrace, interference, audit bool
}

var allObservers = observers{registry: true, sampler: true, interference: true}

// simConfig builds the workload's simulator configuration. Observers hold
// state, so every call makes fresh ones.
func (r *run) simConfig(obs observers) (sim.Config, error) {
	ps := make([]trace.Profile, len(r.wl.mix))
	for i, n := range r.wl.mix {
		p, err := trace.ByName(n)
		if err != nil {
			return sim.Config{}, err
		}
		ps[i] = p
	}
	// The transits are sim's defaults, spelled out because the traced
	// stepping loop keeps the transit queues itself.
	cfg := sim.Config{Workload: ps, Policy: sim.FQVFTF, Seed: r.seed, ReqTransit: transit, RespTransit: transit}
	cfg.Mem.Channels = r.wl.channels
	if obs.registry || obs.sampler {
		cfg.Metrics = metrics.New()
	}
	if obs.sampler {
		cfg.SampleInterval = 10_000
	}
	if obs.chrometrace {
		cfg.Trace = metrics.NewTraceWriter(io.Discard)
	}
	cfg.Interference = obs.interference
	cfg.Audit = obs.audit
	return cfg, nil
}

// simRun is one simulation: built, warmed up, and stepped through its
// measured region under a timer.
type simRun struct {
	sys            *sim.System
	setup, wall    float64   // host seconds
	cpu            float64   // host CPU seconds over the measured region
	walls, cpus    []float64 // the same, per part of the measured region
	mallocs        uint64    // heap allocations over the measured region
	digest         string
	measuredCycles int64
}

// simParts is how many separately timed parts a simulation's measured
// region is stepped in (see fastest).
const simParts = 8

// runSim builds cfg, steps warmup cycles (set-up: the modelled caches
// fill and the heap reaches steady state) and then times Step over the
// measured cycles, part by part. The caller closes the returned system.
func runSim(cfg sim.Config, warmup, measured int64) (simRun, error) {
	t0 := time.Now()
	sys, err := sim.New(cfg)
	if err != nil {
		return simRun{}, err
	}
	sys.Step(warmup)
	sys.BeginMeasurement()
	out := simRun{sys: sys, setup: time.Since(t0).Seconds(), measuredCycles: measured}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for part, left := int64(0), measured; part < simParts; part++ {
		n := left / (simParts - part)
		left -= n
		cpu0 := cpuSeconds()
		t1 := time.Now()
		sys.Step(n)
		wall, cpu := time.Since(t1).Seconds(), cpuSeconds()-cpu0
		out.walls, out.cpus = append(out.walls, wall), append(out.cpus, cpu)
		out.wall += wall
		out.cpu += cpu
	}
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	sys.FinishAudit()
	if cfg.Trace != nil {
		if err := cfg.Trace.Close(); err != nil {
			return out, err
		}
	}
	out.digest = simDigest(sys)
	return out, nil
}

func (s simRun) cyclesPerSec() float64 { return float64(s.measuredCycles) / s.wall }

// counters are the simulated statistics that must not depend on how a
// system was stepped: by System.Step, by the traced loop, serially or on
// two workers, with observers or without.
type counters struct {
	Retired, Stalls, ReadsDone, WritesDone []int64
	DataBusBusy, VClock                    int64
}

func readCounters(sys *sim.System) counters {
	ctrl := sys.Controller()
	var c counters
	for i := 0; i < ctrl.Threads(); i++ {
		st := ctrl.Stats(i)
		c.Retired = append(c.Retired, sys.Core(i).Retired)
		c.Stalls = append(c.Stalls, sys.Core(i).StallCycles)
		c.ReadsDone = append(c.ReadsDone, st.ReadsDone)
		c.WritesDone = append(c.WritesDone, st.WritesDone)
	}
	c.DataBusBusy = ctrl.DataBusBusyCycles()
	c.VClock = ctrl.VClock()
	return c
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// simDigest hashes the canonical sim.Result and the raw counters of a
// system stepped by System.Step.
func simDigest(sys *sim.System) string {
	return digestOf(struct {
		Result   sim.Result
		Counters counters
	}{sys.Results(), readCounters(sys)})
}

// repeats runs one() until the run's seconds are used, at least
// minRepeats times, and counts each as an operation. Around every repeat
// it times the calibration loop, and it records each repeat's peak
// resident set size: freed heap goes back to the system and the
// high-water mark restarts before every repeat, so that the peak is of
// one repeat and not of however many the collector had not got round to.
func (r *run) repeats(one func(rep int) error) (env hostSamples) {
	start := time.Now()
	for rep := 0; ; rep++ {
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		env.loop = append(env.loop, calibrate())
		err := one(rep)
		env.rssMB = append(env.rssMB, peakRSSMB())
		r.op(err == nil, "repeat %d: %v", rep, err)
		done := float64(rep + 1)
		elapsed := time.Since(start).Seconds()
		if err != nil || (rep+1 >= minRepeats && elapsed+elapsed/done > r.seconds) {
			env.loop = append(env.loop, calibrate())
			return env
		}
	}
}

// hostSamples is what repeats observed of the host rather than of the
// program: the calibration loop's seconds (before every repeat and after
// the last) and each repeat's peak resident set size.
type hostSamples struct {
	loop  []float64
	rssMB []float64
}

// slowdown is how much slower than nominal the host ran during the run:
// the calibration loop's fastest time over its nominal time.
func (h hostSamples) slowdown() float64 {
	best := h.loop[0]
	for _, s := range h.loop[1:] {
		best = math.Min(best, s)
	}
	return best / calibrationNominal
}

// fastest is the host time of a measured region with the host's
// interference taken out as far as repeating can: the region is timed in
// parts, a part's time is that of its fastest repeat, and the region's
// time is the sum over its parts. Everything else on a shared host only
// ever slows a part down, in bursts shorter than a repeat, so the fastest
// of several repeats of the same work is the steady estimate; between
// sets of runs of the same code it moved about half as much as the
// median of whole repeats did.
func fastest(repeats [][]float64) float64 {
	sum := 0.0
	for part := range repeats[0] {
		best := repeats[0][part]
		for _, rep := range repeats[1:] {
			best = math.Min(best, rep[part])
		}
		sum += best
	}
	return sum
}

// samples are the timings of a run's repeats: set-up seconds (one or
// more per repeat) and, per repeat, the host and CPU seconds of each part
// of the measured region.
type samples struct {
	setup     []float64
	wall, cpu [][]float64
}

// endToEnd reports a run's end-to-end metrics. cycles is the simulated
// cycle count of one measured region. Host seconds are divided by the
// host's slowdown during the run (see calibrate); set-up and memory are
// medians over the repeats.
func (r *run) endToEnd(cycles float64, s samples, env hostSamples, qos float64) {
	if len(s.wall) == 0 {
		return
	}
	slow := env.slowdown()
	fmt.Fprintf(r.out, "%-14s n=%d repeats in %d parts, %.0f simulated cycles each; host %.3fx slower than nominal; as timed: %.6g cycles/s, set-up %.6g s\n",
		r.wl.name, len(s.wall), len(s.wall[0]), cycles, slow, cycles/fastest(s.wall), median(s.setup))
	r.set("simcycles_per_s", cycles/(fastest(s.wall)/slow))
	r.set("cpu_s_per_mcycle", fastest(s.cpu)/slow/(cycles/1e6))
	r.set("setup_s", median(s.setup)/slow)
	r.set("peak_rss_mb", median(env.rssMB))
	r.set("qos_min_norm_ipc", qos)
}

// sameDigests counts one operation: every repeat simulated the same
// thing.
func (r *run) sameDigests(what string, digests []string) {
	for _, d := range digests {
		if d != digests[0] {
			r.op(false, "%s differs between repeats: %v", what, digests)
			return
		}
	}
	r.op(len(digests) > 0, "%s: no repeats", what)
}

// timedSim is the untraced pass of a single-simulation workload.
func (r *run) timedSim() {
	warmup, measured := r.cycles()
	obs := observers{}
	if r.wl.observed {
		obs = allObservers
	}
	var t samples
	var digests []string
	var last sim.Result
	env := r.repeats(func(int) error {
		t0 := time.Now()
		cfg, err := r.simConfig(obs)
		if err != nil {
			return err
		}
		lookup := time.Since(t0).Seconds()
		s, err := runSim(cfg, warmup, measured)
		if err != nil {
			return err
		}
		defer s.sys.Close()
		t.setup = append(t.setup, lookup+s.setup)
		t.wall, t.cpu = append(t.wall, s.walls), append(t.cpu, s.cpus)
		digests = append(digests, s.digest)
		last = s.sys.Results()
		return nil
	})
	r.sameDigests("sim_digest", digests)
	qos, err := r.qosSim(last)
	r.op(err == nil, "private baselines: %v", err)
	r.endToEnd(float64(measured), t, env, qos)
}

// qosSim is the paper's QoS objective on one mix: the worst thread's IPC
// as a share of what the same benchmark retires alone on a private memory
// system whose timing is scaled by the thread count (the baseline
// exp.ArenaSoloUnit defines). FQ-VFTF is meant to hold it near 1.
func (r *run) qosSim(res sim.Result) (float64, error) {
	if len(res.Threads) != len(r.wl.mix) {
		return 0, fmt.Errorf("result has %d threads, the mix %d", len(res.Threads), len(r.wl.mix))
	}
	warmup, measured := r.cycles()
	alone := make(map[string]float64)
	worst := 0.0
	for i, b := range r.wl.mix {
		if _, ok := alone[b]; !ok {
			cfg, err := exp.ArenaSoloUnit(b, len(r.wl.mix), r.wl.channels).SimConfig()
			if err != nil {
				return 0, err
			}
			cfg.Seed = r.seed
			solo, err := sim.Run(cfg, warmup, measured)
			if err != nil {
				return 0, err
			}
			alone[b] = solo.Threads[0].IPC
		}
		norm := res.Threads[i].IPC / alone[b]
		if i == 0 || norm < worst {
			worst = norm
		}
	}
	return worst, nil
}
