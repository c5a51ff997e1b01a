// Command experiments regenerates every table and figure of the paper's
// evaluation and prints a paper-versus-measured headline summary. After
// each figure it reports the wall-clock time and the simulator
// throughput (simulated cycles per second) that produced it.
//
// Usage:
//
//	experiments [-fig 1|4|5|6|7|8|9|sweep|arena|headline|all] [-warmup N] [-window N] [-seed N]
//	            [-parallel N]
//	            [-serve addr] [-sample-interval N] [-interference]
//	            [-out dir] [-checkpoint-every N] [-resume]
//	            [-arena-mixes M] [-arena-shares S] [-arena-channels C]
//	            [-worker url] [-worker-dir dir] [-worker-poll D]
//
// -fig arena races the post-2006 scheduler lineage —
// FR-FCFS, FR-VFTF, FQ-VFTF, BLISS, SLOW-FAIR, BANK-BW — across
// workload mixes, share splits, and channel counts and prints the
// fairness-vs-throughput table with each cell's Pareto frontier
// starred; with -out it additionally writes arena.csv and arena.json.
// -arena-mixes/-arena-shares/-arena-channels narrow the swept matrix
// (e.g. -arena-mixes vpr+art -arena-shares eq,3-4 -arena-channels 1).
//
// -worker turns the process into a sweep-fabric worker: it leases
// chunks from the sweepd coordinator at the given URL, executes them
// with checkpoint-epoch heartbeats, uploads artifacts, and exits when
// the coordinator reports the sweep done. All figure flags are ignored
// in worker mode; the coordinator's job spec governs every run.
//
// -parallel is the sweep's width: how many simulations run at once
// (0, the default, uses every CPU the process may run on).
//
// -serve exposes sweep progress (figures done, simulated cycles per
// second) and, once runs sample, the usual telemetry endpoints over
// HTTP while the sweep executes.
//
// -out names the one directory a sweep writes into: every simulation
// leaves its artifact set there (its result; its time series with
// -sample-interval; its delay matrix with -interference), and with
// -checkpoint-every it periodically checkpoints its full state there
// too. If the sweep is killed, rerunning it with -resume picks each run
// up from its last checkpoint — or recalls it outright if its artifact
// set is complete — and produces bit-identical tables and artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/telemetry"
)

// runWorker joins a sweepd coordinator as a fabric worker until the
// sweep completes (or fails, or the process is interrupted).
func runWorker(url, dir string, poll time.Duration) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fqms-worker-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	host, _ := os.Hostname()
	name := fmt.Sprintf("%s-%d", host, os.Getpid())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &fabric.Worker{Coordinator: url, Dir: dir, Name: name, Poll: poll}
	fmt.Fprintf(os.Stderr, "experiments: worker %s leasing from %s\n", name, url)
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: worker %s done\n", name)
	return nil
}

// fig adapts one figure driver and the method that prints its result to
// the shape main's table dispatches on.
func fig[T any](run func() (T, error), render func(T, io.Writer)) func(io.Writer) error {
	return func(w io.Writer) error {
		res, err := run()
		if err != nil {
			return err
		}
		render(res, w)
		return nil
	}
}

func main() {
	var (
		figName   = flag.String("fig", "all", "figure to regenerate: 1, 4, 5, 6, 7, 8, 9, sweep, arena, headline, or all")
		warmup    = flag.Int64("warmup", 50_000, "warmup cycles per run")
		window    = flag.Int64("window", 400_000, "measurement cycles per run")
		seed      = flag.Uint64("seed", 0, "trace generator seed")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		serveAddr = flag.String("serve", "", "serve sweep progress over HTTP on this address (e.g. 127.0.0.1:9300)")
		sampleInt = flag.Int64("sample-interval", 0, "epoch sampling interval in cycles (0 = off); adds each run's time series to its artifact set")
		out       = flag.String("out", "", "directory receiving every run's artifact set, its checkpoints, and the arena's arena.csv and arena.json")
		ckptEvery = flag.Int64("checkpoint-every", 0, "cycles between checkpoints of every run's state into -out (0 = off)")
		resume    = flag.Bool("resume", false, "resume each run from its checkpoint (or recall its complete artifact set) in -out")
		arenaMix  = flag.String("arena-mixes", "", "arena workload mixes, e.g. \"vpr+art,swim+mcf+vpr+art\" (empty = default)")
		arenaShr  = flag.String("arena-shares", "", "arena thread-0 share splits, e.g. \"eq,3-4\" (empty = default)")
		arenaCh   = flag.String("arena-channels", "", "arena channel counts, e.g. \"1,2\" (empty = default)")
		intfOn    = flag.Bool("interference", false, "run every simulation with delay attribution on (adds each run's delay matrix to its artifact set and the arena interference_index column; results stay bit-identical)")
		workerURL = flag.String("worker", "", "run as a sweep-fabric worker against this coordinator URL")
		workerDir = flag.String("worker-dir", "", "worker scratch directory (empty = a fresh temp dir)")
		workerPol = flag.Duration("worker-poll", 100*time.Millisecond, "worker idle re-lease interval")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *workerURL != "" {
		if err := runWorker(*workerURL, *workerDir, *workerPol); err != nil {
			fail(err)
		}
		return
	}

	if (*resume || *ckptEvery != 0) && *out == "" {
		fail(fmt.Errorf("-resume and -checkpoint-every need -out"))
	}
	cfg := exp.Config{
		Warmup: *warmup, Window: *window, Seed: *seed, Parallel: *par,
		Interference: *intfOn, SampleInterval: *sampleInt,
		Dir: *out, CheckpointEvery: *ckptEvery, Resume: *resume,
	}
	var prog *telemetry.Progress
	if *serveAddr != "" {
		prog = telemetry.NewProgress(1)
		cfg.Progress = prog
		srv, err := telemetry.Start(telemetry.Config{Addr: *serveAddr, Progress: prog})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: status server on %s\n", srv.URL())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}

	r := exp.NewRunner(cfg)
	w := os.Stdout

	figures := map[string]struct {
		name string
		run  func(io.Writer) error
	}{
		"1": {"figure 1", fig(r.Figure1, exp.Figure1Result.Render)},
		"4": {"figure 4", fig(r.Figure4, exp.Figure4Result.Render)},
		"5": {"figure 5", fig(r.TwoCore, exp.TwoCoreResult.RenderFigure5)},
		"6": {"figure 6", fig(r.TwoCore, exp.TwoCoreResult.RenderFigure6)},
		"7": {"figure 7", fig(r.TwoCore, exp.TwoCoreResult.RenderFigure7)},
		"8": {"figure 8", fig(r.Figure8, exp.Figure8Result.Render)},
		"9": {"figure 9", fig(func() (exp.Figure9Result, error) {
			f8, err := r.Figure8()
			if err != nil {
				return exp.Figure9Result{}, err
			}
			return r.Figure9(f8)
		}, exp.Figure9Result.Render)},
		"arena": {"policy arena", func(w io.Writer) error {
			spec, err := exp.ParseArenaSpec(*arenaMix, *arenaShr, *arenaCh)
			if err != nil {
				return err
			}
			res, err := r.Arena(spec)
			if err != nil {
				return err
			}
			res.Render(w)
			if *out == "" {
				return nil
			}
			set, err := res.Artifacts()
			if err != nil {
				return err
			}
			return exp.WriteArtifacts(*out, set)
		}},
		"sweep":    {"share sweep", fig(func() (exp.ShareSweepResult, error) { return r.ShareSweep("") }, exp.ShareSweepResult.Render)},
		"headline": {"headline", fig(r.All, func(rep exp.Report, w io.Writer) { rep.Headline().Render(w) })},
		"all":      {"all figures", fig(r.All, exp.Report.Render)},
	}
	f, ok := figures[*figName]
	if !ok {
		fail(fmt.Errorf("unknown figure %q", *figName))
	}

	// A figure's driver is followed by a wall-clock / simulated-throughput
	// line. Memoized runs shared between figures are only counted (and
	// only cost time) once, under whichever figure simulated them first.
	start := time.Now()
	before := r.SimulatedCycles()
	if prog != nil {
		prog.Start(f.name)
	}
	if err := f.run(w); err != nil {
		fail(err)
	}
	if prog != nil {
		prog.Finish(f.name)
	}
	elapsed := time.Since(start)
	cycles := r.SimulatedCycles() - before
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(w, "[%s] wall %.2fs, %d simulated cycles, %.2f Msimcycles/s\n\n",
		f.name, elapsed.Seconds(), cycles, float64(cycles)/secs/1e6)
}
