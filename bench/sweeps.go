package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/trace"
)

// The goldens are read from the repository, not pinned here, so that a
// change to the model re-blesses them in its own diff.
const (
	goldenQuick = "internal/exp/testdata/golden/quick.json"
	goldenArena = "internal/exp/testdata/golden/arena.json"
)

// sweepConfig is the runner configuration of a sweep workload at the
// run's size and seed.
func (r *run) sweepConfig() exp.Config {
	warmup, window := r.cycles()
	return exp.Config{Warmup: warmup, Window: window, Seed: r.seed, Parallel: width}
}

// quickConfig is the configuration the goldens were blessed at.
func (r *run) quickConfig() exp.Config {
	cfg := exp.QuickConfig()
	cfg.Warmup /= r.shrink
	cfg.Window /= r.shrink
	cfg.Parallel = width
	return cfg
}

// countRuns runs the full evaluation at one-cycle windows on one worker:
// every distinct simulation is built once and stepped twice, which costs
// construction only and tells how many distinct simulations the
// evaluation holds. Runner.SimulatedCycles cannot say: concurrent figure
// drivers that ask for the same run both simulate it, so it over-counts
// by a few runs, differently each time.
func countRuns(seed uint64) (int64, error) {
	probe := exp.NewRunner(exp.Config{Warmup: 1, Window: 1, Seed: seed, Parallel: 1})
	if _, err := probe.All(); err != nil {
		return 0, err
	}
	return probe.SimulatedCycles() / 2, nil
}

// figureParts runs the evaluation as Runner.All does, driver by driver,
// and returns the host seconds and CPU seconds of each.
func figureParts(runner *exp.Runner) (rep exp.Report, wall, cpu []float64, err error) {
	part := func(fn func() error) {
		if err != nil {
			return
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		err = fn()
		wall, cpu = append(wall, time.Since(t0).Seconds()), append(cpu, cpuSeconds()-cpu0)
	}
	part(func() (e error) { rep.Fig4, e = runner.Figure4(); return })
	part(func() (e error) { rep.Fig1, e = runner.Figure1(); return })
	part(func() (e error) { rep.TwoCore, e = runner.TwoCore(); return })
	part(func() (e error) { rep.Fig8, e = runner.Figure8(); return })
	part(func() (e error) { rep.Fig9, e = runner.Figure9(rep.Fig8); return })
	return rep, wall, cpu, err
}

// timedFigures is the untraced pass of figures-all. Set-up is the runner
// plus the construction-only probe; the measured region is the five
// figure drivers in Runner.All's order, each a separately timed part.
func (r *run) timedFigures() {
	cfg := r.sweepConfig()
	var t samples
	var digests []string
	var distinct int64
	var head exp.Headline
	env := r.repeats(func(int) error {
		// Set-up takes milliseconds, so each repeat sets up three times
		// and every one is a sample.
		var n int64
		var runner *exp.Runner
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			var err error
			if n, err = countRuns(r.seed); err != nil {
				return err
			}
			runner = exp.NewRunner(cfg)
			t.setup = append(t.setup, time.Since(t0).Seconds())
		}
		rep, w, c, err := figureParts(runner)
		if err != nil {
			return err
		}
		t.wall, t.cpu = append(t.wall, w), append(t.cpu, c)
		digests = append(digests, digestOf(rep))
		distinct, head = n, rep.Headline()
		return nil
	})
	r.sameDigests("figures digest", digests)
	fig4, err := exp.NewRunner(r.quickConfig()).Figure4()
	if err != nil {
		r.fail(err)
	} else {
		r.goldenFig4(fig4.Rows)
	}
	r.endToEnd(float64(distinct*(cfg.Warmup+cfg.Window)), t, env, head.TwoCoreWorstNormIPC)
}

// goldenFig4 counts one operation per golden Figure 4 row (art, vpr,
// crafty): the rows computed now equal the blessed ones. At a shrunk size
// the goldens do not apply and the rows are only required to be present.
func (r *run) goldenFig4(rows []exp.Figure4Row) {
	var golden struct {
		Fig4 []exp.Figure4Row `json:"fig4"`
	}
	b, err := os.ReadFile(filepath.Join(r.root, goldenQuick))
	if err == nil {
		err = json.Unmarshal(b, &golden)
	}
	if err != nil || len(golden.Fig4) == 0 {
		r.op(false, "golden %s: %v", goldenQuick, err)
		return
	}
	got := make(map[string]exp.Figure4Row, len(rows))
	for _, row := range rows {
		got[row.Benchmark] = row
	}
	for _, want := range golden.Fig4 {
		g, ok := got[want.Benchmark]
		same := ok && (r.shrink > 1 || sameRow(g, want))
		r.op(same, "Figure 4 row %s: got %+v, golden %+v", want.Benchmark, g, want)
	}
}

// sameRow compares at the golden test's tolerance, which only absorbs the
// float64 round-trip through JSON.
func sameRow(a, b exp.Figure4Row) bool {
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return near(a.BusUtil, b.BusUtil) && near(a.IPC, b.IPC) && near(a.ReadLat, b.ReadLat) &&
		near(a.ReadLatP50, b.ReadLatP50) && near(a.ReadLatP95, b.ReadLatP95) && near(a.ReadLatP99, b.ReadLatP99)
}

// paperDevPct is the stated model error: the mean absolute relative
// deviation, in percent, of the headline statistics from the values the
// paper reports (EXPERIMENTS.md is the only reference the repo holds).
func paperDevPct(h exp.Headline) float64 {
	pairs := [][2]float64{
		{h.TwoCoreAvgImprovement, 0.31},
		{h.TwoCoreMaxImprovement, 0.76},
		{h.TwoCoreFQBusUtil, 0.92},
		{h.TwoCoreWorstNormIPC, 0.94},
		{h.FourCoreAvgImprovement, 0.14},
		{h.FourCoreMaxImprovement, 0.41},
	}
	sum := 0.0
	for _, p := range pairs {
		sum += math.Abs(p[0]-p[1]) / p[1]
	}
	return 100 * sum / float64(len(pairs))
}

// tracedFigures is the traced pass of figures-all: the evaluation once at
// the size and seed the goldens pin, with a span around each figure
// driver.
func (r *run) tracedFigures() {
	cfg := r.quickConfig()
	runner := exp.NewRunner(cfg)
	rep, wall, cpu, err := figureParts(runner)
	r.op(err == nil, "figure drivers: %v", err)
	if err != nil {
		return
	}
	total, busy := 0.0, 0.0
	for i, name := range []string{"exp.fig4_s", "exp.fig1_s", "exp.twocore_s", "exp.fig8_s", "exp.fig9_s"} {
		r.set(name, wall[i])
		total += wall[i]
		busy += cpu[i]
	}
	r.set("exp.runs", float64(runner.SimulatedCycles())/float64(cfg.Warmup+cfg.Window))
	r.set("exp.cpu_util", busy/(total*width))
	r.set("exp.paper_dev_pct", paperDevPct(rep.Headline()))
	r.goldenFig4(rep.Fig4.Rows)
}

// arenaJob is the sharded sweep: the default arena with four checkpoint
// heartbeats per chunk.
func arenaJob(cfg exp.Config) fabric.JobSpec {
	return fabric.JobSpec{
		Spec:   exp.DefaultArenaSpec(),
		Warmup: cfg.Warmup, Window: cfg.Window, Seed: cfg.Seed,
		CheckpointEvery: (cfg.Warmup + cfg.Window) / 4,
	}
}

// roundTrips times the workers' HTTP round trips. The untraced pass uses
// it only to learn when the first lease was granted, which ends set-up.
type roundTrips struct {
	base   http.RoundTripper
	record bool

	first sync.Once
	// firstLease and cpuAtLease are written once, before any reader
	// looks: readers run after the workers have returned.
	firstLease time.Time
	cpuAtLease float64

	mu     sync.Mutex
	byPath map[string][]float64 // endpoint -> round-trip milliseconds
	total  time.Duration
	bytes  int64
}

func (t *roundTrips) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	path := req.URL.Path
	if err == nil && path == "/lease" {
		t.first.Do(func() { t.firstLease, t.cpuAtLease = time.Now(), cpuSeconds() })
	}
	if t.record {
		if strings.HasPrefix(path, "/blob/") {
			path = "/blob"
		}
		t.mu.Lock()
		t.byPath[path] = append(t.byPath[path], float64(d)/float64(time.Millisecond))
		t.total += d
		if req.ContentLength > 0 {
			t.bytes += req.ContentLength
		}
		t.mu.Unlock()
	}
	return resp, err
}

// fabricSweep is one sweep through the fabric.
type fabricSweep struct {
	setup, wall, cpu float64
	busy             float64 // summed wall of the workers' Run calls
	arena            []byte  // merged arena.json
	status           fabric.StatusReport
	rt               *roundTrips
}

// runFabric starts a coordinator on a loopback port and width in-process
// workers, waits for the job, and writes the merged artifacts. Set-up
// ends when the first lease is granted; the measured region ends when the
// artifacts are written.
func (r *run) runFabric(job fabric.JobSpec, tag string, record bool) (out fabricSweep, err error) {
	dir := filepath.Join(r.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%s", r.wl.name, os.Getpid(), tag))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Job: job})
	if err != nil {
		return out, err
	}
	srv, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	defer func() {
		if e := srv.Shutdown(ctx); err == nil && e != nil {
			err = e
		}
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: width}
	defer transport.CloseIdleConnections()
	rt := &roundTrips{base: transport, record: record, byPath: make(map[string][]float64)}

	var wg sync.WaitGroup
	errs := make([]error, width)
	busy := make([]float64, width)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			worker := fabric.Worker{
				Coordinator: srv.URL(),
				Dir:         filepath.Join(dir, fmt.Sprintf("worker%d", w)),
				Name:        fmt.Sprintf("bench%d", w),
				Client:      &http.Client{Transport: rt},
			}
			if errs[w] = worker.Run(ctx); errs[w] != nil {
				cancel() // the job cannot finish; stop waiting for it
			}
			busy[w] = time.Since(start).Seconds()
		}(w)
	}
	werr := coord.Wait(ctx)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return out, e
		}
	}
	if werr != nil {
		return out, werr
	}
	merged := filepath.Join(dir, "merged")
	if err := coord.WriteMerged(merged); err != nil {
		return out, err
	}
	end := time.Now()
	out = fabricSweep{
		setup:  rt.firstLease.Sub(t0).Seconds(),
		wall:   end.Sub(rt.firstLease).Seconds(),
		cpu:    cpuSeconds() - rt.cpuAtLease,
		status: coord.Status(),
		rt:     rt,
	}
	for _, b := range busy {
		out.busy += b
	}
	out.arena, err = os.ReadFile(filepath.Join(merged, "arena.json"))
	return out, err
}

// directArena runs the same sweep in one process, the reference the
// fabric's merged artifacts must equal byte for byte.
func directArena(cfg exp.Config) (arena []byte, res exp.ArenaResult, wall float64, err error) {
	t0 := time.Now()
	res, err = exp.NewRunner(cfg).Arena(exp.DefaultArenaSpec())
	if err != nil {
		return nil, res, 0, err
	}
	wall = time.Since(t0).Seconds()
	arena, err = res.ArtifactJSON()
	return arena, res, wall, err
}

// timedFabric is the untraced pass of fabric-arena.
func (r *run) timedFabric() {
	cfg := r.sweepConfig()
	job := arenaJob(cfg)
	chunks := len(exp.ArenaUnits(job.Spec))
	var t samples
	var arenas [][]byte
	env := r.repeats(func(rep int) error {
		s, err := r.runFabric(job, fmt.Sprint(rep), false)
		if err != nil {
			return err
		}
		t.setup = append(t.setup, s.setup)
		t.wall, t.cpu = append(t.wall, []float64{s.wall}), append(t.cpu, []float64{s.cpu})
		arenas = append(arenas, s.arena)
		r.op(s.status.Done == chunks, "repeat %d: %d of %d chunks done", rep, s.status.Done, chunks)
		return nil
	})
	if len(arenas) == 0 {
		return
	}
	same := true
	for _, a := range arenas {
		same = same && bytes.Equal(a, arenas[0])
	}
	r.op(same, "merged arena.json differs between repeats")
	direct, res, _, err := directArena(cfg)
	r.op(err == nil && bytes.Equal(direct, arenas[0]), "merged arena.json differs from the single-process sweep (err %v)", err)
	r.endToEnd(float64(int64(chunks)*job.TotalCycles()), t, env, qosArena(res))
}

// qosArena is the isolation half of the paper's QoS objective: the worst
// thread of any equal-share FQ-VFTF cell that holds an antagonist
// (1/max-slowdown is that thread's IPC normalised to its private
// baseline). The four-benchmark cell is left out because at the timed
// window its worst thread moves by a third between seeds; in a skewed
// cell the baseline is not the thread's share.
func qosArena(res exp.ArenaResult) float64 {
	hostile := make(map[string]bool)
	for _, p := range trace.Antagonists() {
		hostile[p.Name] = true
	}
	qos := math.Inf(1)
	for _, row := range res.Rows {
		attacked := false
		for _, b := range strings.Split(row.Workload, "+") {
			attacked = attacked || hostile[b]
		}
		if attacked && row.Policy == "FQ-VFTF" && row.Share0 == "eq" {
			qos = math.Min(qos, 1/row.MaxSlowdown)
		}
	}
	return qos
}

// tracedFabric is the traced pass of fabric-arena: the sweep once at the
// size and seed the arena golden pins, with every worker round trip
// timed, against the single-process sweep as the base.
func (r *run) tracedFabric() {
	cfg := r.quickConfig()
	job := arenaJob(cfg)
	s, err := r.runFabric(job, "traced", true)
	if err != nil {
		r.fail(err)
		return
	}
	chunks := float64(len(s.status.Chunks))
	r.op(s.status.Done == len(s.status.Chunks), "%d of %.0f chunks done", s.status.Done, chunks)
	if r.shrink == 1 {
		golden, err := os.ReadFile(filepath.Join(r.root, goldenArena))
		r.op(err == nil && bytes.Equal(golden, s.arena), "merged arena.json differs from %s (err %v)", goldenArena, err)
	}
	direct, _, directWall, err := directArena(cfg)
	r.op(err == nil && bytes.Equal(direct, s.arena), "merged arena.json differs from the single-process sweep (err %v)", err)

	rt := s.rt
	r.set("fabric.lease_ms_p50", median(rt.byPath["/lease"]))
	r.set("fabric.heartbeat_ms_p50", median(rt.byPath["/heartbeat"]))
	r.set("fabric.heartbeat_ms_p95", percentile(rt.byPath["/heartbeat"], 0.95))
	r.set("fabric.complete_ms_p50", median(rt.byPath["/complete"]))
	r.set("fabric.http_frac", rt.total.Seconds()/s.busy)
	r.set("fabric.chunks_per_s", chunks/s.wall)
	r.set("fabric.bytes_per_chunk", float64(rt.bytes)/chunks)
	r.set("fabric.store_mb", float64(s.status.StoreBytes)/(1<<20))
	retries := 0
	for _, c := range s.status.Chunks {
		retries += c.Attempts - 1
	}
	r.set("fabric.retries", float64(retries))
	if err == nil {
		r.set("fabric.overhead_x", (s.setup+s.wall)/directWall)
	}
}
