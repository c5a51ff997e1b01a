// Command bench is the repository's benchmark: six workloads over the
// simulator, the figure runner and the sweep fabric, host-throughput
// end-to-end metrics, and a separate traced pass that times the calls
// into each layer from this directory's own files. BENCHMARK.json at the
// root of the repository declares the workloads and metrics; README.md
// here records why each was chosen and which end-to-end number each layer
// number is expected to move. The harness claims no gain.
//
// One run of one workload (the form the benchmark driver uses):
//
//	bash bench/run.sh --workload heavy-art4 --seed 1 --seconds 16 --trace 0
//
// prints every metric by name with its unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without --workload every workload runs in a fresh child process, first
// untraced and then traced; -selfcheck runs two such sets and compares
// them under the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// width is the parallel width of every parallel thing the benchmark
// starts (concurrent simulations, fabric workers, sim.Config.Workers).
// It is fixed so that numbers from different hosts are comparable; 2 is
// the processor count of the host the sizes were chosen on, and the
// header records the count of the host that ran.
const width = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDecl and spec mirror BENCHMARK.json, which is the single
// declaration of metric names, units and bounds: the harness reads units
// from it and refuses to report a name it does not declare.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the root of the checkout, where the goldens live and
// where .bench_build/ takes the benchmark's scratch files.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// run is one pass (untraced or traced) of one workload: it counts
// operations and collects metrics.
type run struct {
	wl      workload
	seed    uint64
	seconds float64
	traced  bool

	// shrink divides every cycle count; 1 is the committed size. The
	// smoke test runs at 50.
	shrink int64

	root  string
	units map[string]string // metrics declared for this pass -> unit
	res   result
	out   io.Writer
}

func newRun(root string, sp spec, wl workload, seed uint64, seconds float64, traced bool, shrink int64, out io.Writer) *run {
	decls := sp.EndToEnd
	if traced {
		decls = sp.PerLayer
	}
	units := make(map[string]string, len(decls))
	for _, d := range decls {
		units[d.Name] = d.Unit
	}
	return &run{
		wl: wl, seed: seed, seconds: seconds, traced: traced, shrink: shrink,
		root: root, units: units, out: out,
		res: result{Metrics: make(map[string]metric)},
	}
}

// op counts one operation; a false ok is a failed operation and is
// printed, never dropped.
func (r *run) op(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Fprintf(r.out, "FAILED %s: %s\n", r.wl.name, fmt.Sprintf(format, args...))
	}
}

// fail counts an operation that could not run at all.
func (r *run) fail(err error) { r.op(false, "%v", err) }

// set reports a metric. A name BENCHMARK.json does not declare for this
// pass is a failed operation.
func (r *run) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		r.op(false, "metric %q is not declared in BENCHMARK.json", name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(false, "metric %q measured %v", name, v)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// finish closes the pass. An end-to-end metric left unset is a failed
// operation. A per-layer metric left unset reads 0: the workload does not
// exercise that layer (the fabric on a single simulation, say).
func (r *run) finish() result {
	for name, unit := range r.units {
		if _, ok := r.res.Metrics[name]; ok {
			continue
		}
		if !r.traced {
			r.op(false, "end-to-end metric %q was not measured", name)
		}
		r.res.Metrics[name] = metric{Value: 0, Unit: unit}
	}
	if r.res.Attempted == 0 {
		r.op(false, "no operation ran")
	}
	r.res.Correct = r.res.Failed == 0
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(r.out, "%-14s %-40s %16.6g %s\n", r.wl.name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(r.out, "%-14s operations attempted %d, failed %d\n", r.wl.name, r.res.Attempted, r.res.Failed)
	return r.res
}

// header records what produced the numbers.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Width      int     `json:"width"`
	Seed       uint64  `json:"seed"`
	SampleK    int     `json:"k"`
	TimerNs    float64 `json:"timer_cost_ns"`
	Claim      *string `json:"claim"` // always null: the benchmark claims no gain
}

func newHeader(seed uint64) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Width: width, Seed: seed,
		SampleK: sampleEvery, TimerNs: timerCost(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, width %d, seed %d, k %d, timer cost %.1f ns, claim null\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Width, h.Seed, h.SampleK, h.TimerNs)
}

func main() {
	// Each of these silently changes what a simulation does (strict loop,
	// auditor, worker pool, attribution), so none may leak in from the
	// caller's environment.
	for _, v := range []string{"FQMS_STRICT", "FQMS_AUDIT", "FQMS_WORKERS", "FQMS_INTERFERENCE"} {
		os.Unsetenv(v)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&o.traced, "traced", false, "without -workload: run only the traced pass")
	flag.BoolVar(&o.notraced, "notraced", false, "without -workload: run only the untraced pass")
	flag.BoolVar(&o.asJSON, "json", false, "without -workload: print one JSON document and nothing else")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of untraced runs of this code (of every workload, or of -workload) and compare them under the bounds in BENCHMARK.json")
	flag.IntVar(&o.runs, "runs", 5, "with -selfcheck: runs (seeds) per set")
	flag.Int64Var(&o.shrink, "shrink", 1, "divide every cycle count by this (the smoke test uses 50; reported numbers need 1)")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload                            string
	seed                                uint64
	seconds                             float64
	trace                               int
	traced, notraced, asJSON, selfcheck bool
	runs                                int
	shrink                              int64
}

func realMain(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.shrink < 1 {
		return fmt.Errorf("-shrink must be at least 1")
	}
	wl, known := workloadByName(o.workload)
	if o.workload != "" && !known {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", o.workload)
	}
	p := parent{root: root, sp: sp, seconds: o.seconds, shrink: o.shrink, asJSON: o.asJSON}
	if o.selfcheck {
		if known {
			p.only(o.workload)
		}
		return p.selfcheck(o.seed, o.runs)
	}
	if known {
		if o.trace != 0 && o.trace != 1 {
			return fmt.Errorf("-trace must be 0 or 1")
		}
		newHeader(o.seed).print(os.Stdout)
		res := runWorkload(root, sp, wl, o.seed, o.seconds, o.trace == 1, o.shrink, os.Stdout)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	passes := []int{0, 1}
	switch {
	case o.traced && o.notraced:
		return fmt.Errorf("-traced and -notraced exclude each other")
	case o.traced:
		passes = []int{1}
	case o.notraced:
		passes = []int{0}
	}
	return p.all(o.seed, passes)
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(root string, sp spec, wl workload, seed uint64, seconds float64, traced bool, shrink int64, out io.Writer) result {
	r := newRun(root, sp, wl, seed, seconds, traced, shrink, out)
	switch {
	case wl.figures && traced:
		r.tracedFigures()
	case wl.figures:
		r.timedFigures()
	case wl.fabric && traced:
		r.tracedFabric()
	case wl.fabric:
		r.timedFabric()
	case traced:
		r.tracedSim()
	default:
		r.timedSim()
	}
	return r.finish()
}
