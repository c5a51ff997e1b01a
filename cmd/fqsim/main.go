// Command fqsim runs one memory-system simulation: a set of benchmarks
// sharing a DDR2 memory system under a chosen scheduling policy, with
// optional non-uniform bandwidth shares.
//
// Usage:
//
//	fqsim -workload art,vpr -policy FQ-VFTF [-shares 3/4,1/4]
//	      [-warmup N] [-window N] [-scale K] [-seed N] [-list]
//	      [-interference] [-trace out.json] [-metrics-out out.json]
//	      [-sample-interval N] [-series-out out.json]
//	      [-serve addr] [-serve-for dur]
//	      [-checkpoint file] [-checkpoint-every N] [-restore file]
//
// -trace streams a Chrome trace-event timeline (open in about://tracing
// or Perfetto) of every SDRAM command and request lifetime; -metrics-out
// dumps the full metrics registry (counters, gauges, latency histograms
// with p50/p95/p99) as JSON. -sample-interval snapshots the registry on
// epoch boundaries; -series-out writes that time series (plus the
// per-thread fairness series) as JSON, and -serve exposes it live over
// HTTP (Prometheus /metrics, JSON /series and /fairness, /progress,
// pprof) while the simulation runs. All of it is purely observational:
// simulation results are bit-identical with or without it.
//
// -checkpoint names a snapshot file for the complete simulator state;
// -checkpoint-every writes it periodically, and with -serve a POST to
// /checkpoint writes it on demand. -restore resumes a run from such a
// file (with the same flags otherwise) and continues bit-identically to
// the run that was interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "art,vpr", "comma-separated benchmark names (one per core)")
		policy    = flag.String("policy", "FQ-VFTF", "scheduler: "+strings.Join(sim.PolicyNames(), ", "))
		shares    = flag.String("shares", "", "comma-separated per-thread shares like 1/2,1/2 (default: equal)")
		warmup    = flag.Int64("warmup", 50_000, "warmup cycles")
		window    = flag.Int64("window", 400_000, "measurement cycles")
		scale     = flag.Int("scale", 1, "time scale the DRAM (private virtual-time baseline; 0 or 1 = physical)")
		seed      = flag.Uint64("seed", 0, "trace generator seed")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
		asJSON    = flag.Bool("json", false, "emit results as JSON")
		auditOn   = flag.Bool("audit", false, "run the invariant auditor (panic on any violation)")
		intfOn    = flag.Bool("interference", false, "attribute every wait cycle to a cause and aggressor thread (observation-only; adds the /interference endpoint under -serve)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event timeline to this file")
		metaOut   = flag.String("metrics-out", "", "write a JSON metrics dump to this file")
		sampleInt = flag.Int64("sample-interval", 0, "epoch sampling interval in cycles (0 = auto: 10000 when -serve or -series-out is used, else off)")
		seriesOut = flag.String("series-out", "", "write the epoch time series (metrics + fairness) as JSON to this file")
		serveAddr = flag.String("serve", "", "serve live status over HTTP on this address while the simulation runs (e.g. 127.0.0.1:9300)")
		serveFor  = flag.Duration("serve-for", 0, "keep the status server up this long after the run finishes")
		ckptPath  = flag.String("checkpoint", "", "write checkpoints of the full simulator state to this file")
		ckptEvery = flag.Int64("checkpoint-every", 0, "write a checkpoint every N cycles (0 = only on POST /checkpoint via -serve)")
		restore   = flag.String("restore", "", "resume from a checkpoint file written by -checkpoint (config must match)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks (most memory-aggressive first):")
		for _, p := range trace.Suite() {
			fmt.Printf("  %-10s target solo bus utilization %.2f\n", p.Name, p.SoloUtilTarget)
		}
		fmt.Println("antagonists (adversarial/heterogeneous agents):")
		for _, p := range trace.Antagonists() {
			kind := p.Attack.String()
			if p.Attack == trace.AttackNone {
				kind = p.Agent.String()
			}
			fmt.Printf("  %-10s %-12s target solo bus utilization %.2f\n", p.Name, kind, p.SoloUtilTarget)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fqsim:", err)
		os.Exit(1)
	}

	if (*ckptPath != "" || *restore != "") && *traceOut != "" {
		// A Chrome trace is an append-only log of everything since cycle
		// zero; a restored run cannot recreate the events it missed, so
		// the combination is refused rather than silently truncated.
		fail(fmt.Errorf("-checkpoint/-restore cannot be combined with -trace"))
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		fail(fmt.Errorf("-checkpoint-every needs -checkpoint"))
	}

	names := strings.Split(*workload, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	var phis []core.Share
	if *shares != "" {
		for _, p := range strings.Split(*shares, ",") {
			s, err := parseShare(strings.TrimSpace(p))
			if err != nil {
				fail(err)
			}
			phis = append(phis, s)
		}
	}
	cfg, err := sim.NamedConfig(names, *policy, phis, 0, *scale)
	if err != nil {
		fail(err)
	}
	cfg.Seed = *seed
	cfg.Audit = *auditOn
	cfg.Interference = *intfOn

	cfg.SampleInterval = *sampleInt
	if cfg.SampleInterval == 0 && (*serveAddr != "" || *seriesOut != "") {
		cfg.SampleInterval = metrics.DefaultSampleInterval
	}

	var reg *metrics.Registry
	if *metaOut != "" {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	var tw *metrics.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		tw = metrics.NewTraceWriter(f)
		if reg == nil {
			// The trace's request lifetimes are most useful alongside the
			// histograms, and the controller hooks are registered once at
			// construction; keep a registry even if it is never dumped.
			reg = metrics.New()
			cfg.Metrics = reg
		}
		cfg.Trace = tw
	}

	var s *sim.System
	if *restore != "" {
		s, err = sim.RestoreFile(cfg, *restore)
		if err != nil {
			fail(fmt.Errorf("restore: %w", err))
		}
		fmt.Fprintf(os.Stderr, "fqsim: restored %s at cycle %d\n", *restore, s.Cycle())
	} else {
		s, err = sim.New(cfg)
		if err != nil {
			fail(err)
		}
	}
	prog := telemetry.NewProgress(1)
	prog.Start(*workload)
	var srv *telemetry.Server
	var trig *telemetry.CheckpointTrigger
	if *serveAddr != "" {
		if *ckptPath != "" {
			trig = telemetry.NewCheckpointTrigger()
		}
		srv, err = telemetry.Start(telemetry.Config{
			Addr:         *serveAddr,
			Sampler:      s.Sampler(),
			Interference: s.Controller(),
			Progress:     prog,
			Checkpoint:   trig,
		})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fqsim: status server on %s\n", srv.URL())
	}

	// The run is chunked so the progress endpoint stays live and an
	// on-demand checkpoint request waits at most one chunk; a periodic
	// checkpoint lands every -checkpoint-every cycles after the cycle
	// this process started from.
	nextCkpt := int64(-1)
	if *ckptPath != "" && *ckptEvery > 0 {
		nextCkpt = s.Cycle() + *ckptEvery
	}
	chunk := func() int64 {
		if n := nextCkpt - s.Cycle(); n > 0 && n < 100_000 {
			return n
		}
		return 100_000
	}
	writeCkpt := func() error {
		if err := s.CheckpointFile(*ckptPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fqsim: checkpoint at cycle %d -> %s\n", s.Cycle(), *ckptPath)
		return nil
	}
	last := s.Cycle()
	progress := func() {
		prog.AddCycles(s.Cycle() - last)
		last = s.Cycle()
	}
	err = s.RunTo(*warmup, *warmup+*window, chunk(), func() (int64, error) {
		progress()
		if nextCkpt > 0 && s.Cycle() >= nextCkpt {
			if err := writeCkpt(); err != nil {
				return 0, fmt.Errorf("checkpoint: %w", err)
			}
			nextCkpt += *ckptEvery
		}
		if trig != nil {
			trig.Poll(writeCkpt)
		}
		return chunk(), nil
	})
	if err != nil {
		fail(err)
	}
	progress()
	res := s.Results()
	prog.Finish(*workload)

	if tw != nil {
		if err := tw.Close(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "fqsim: wrote %d trace events to %s\n", tw.Events(), *traceOut)
	}
	if *metaOut != "" {
		f, err := os.Create(*metaOut)
		if err != nil {
			fail(err)
		}
		if err := reg.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
	}
	if *seriesOut != "" {
		if err := exp.WriteSeriesJSON(*seriesOut, s); err != nil {
			fail(fmt.Errorf("series: %w", err))
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	} else {
		fmt.Printf("policy %s, %d cores, %d measured cycles\n", res.PolicyName, len(res.Threads), res.Cycles)
		fmt.Printf("%-10s %8s %8s %10s %10s %10s %10s %8s\n", "thread", "IPC", "busUtil", "readLat", "latP95", "latP99", "reads", "rowHit")
		for _, t := range res.Threads {
			fmt.Printf("%-10s %8.3f %8.3f %10.0f %10.0f %10.0f %10d %8.2f\n",
				t.Benchmark, t.IPC, t.BusUtil, t.AvgReadLatency, t.ReadLatP95, t.ReadLatP99, t.ReadsDone, t.RowHitRate)
		}
		fmt.Printf("aggregate: data bus utilization %.3f, bank utilization %.3f\n",
			res.DataBusUtil, res.BankUtil)
		if isnap, ok := s.Interference(); ok && isnap.Total > 0 {
			fmt.Printf("interference: %d attributed wait cycles, %.1f%% charged cross-thread\n",
				isnap.Total, 100*float64(isnap.Cross)/float64(isnap.Total))
			for v, row := range isnap.Matrix {
				top, cycles := -1, int64(0)
				for a := 0; a < isnap.Threads; a++ {
					if a != v && row[a] > cycles {
						top, cycles = a, row[a]
					}
				}
				if top >= 0 {
					fmt.Printf("  thread %d (%s): top aggressor thread %d (%s), %d cycles\n",
						v, res.Threads[v].Benchmark, top, res.Threads[top].Benchmark, cycles)
				}
			}
		}
	}

	if srv != nil {
		if *serveFor > 0 {
			fmt.Fprintf(os.Stderr, "fqsim: serving final state for %s\n", *serveFor)
			time.Sleep(*serveFor)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail(fmt.Errorf("server shutdown: %w", err))
		}
	}
}

// parseShare parses "num/den" or a bare integer percentage like "25".
func parseShare(s string) (core.Share, error) {
	if num, den, ok := strings.Cut(s, "/"); ok {
		n, err1 := strconv.Atoi(num)
		d, err2 := strconv.Atoi(den)
		if err1 != nil || err2 != nil {
			return core.Share{}, fmt.Errorf("bad share %q", s)
		}
		sh := core.Share{Num: n, Den: d}
		if !sh.Valid() {
			return core.Share{}, fmt.Errorf("invalid share %q", s)
		}
		return sh, nil
	}
	pct, err := strconv.Atoi(s)
	if err != nil || pct < 1 || pct > 100 {
		return core.Share{}, fmt.Errorf("bad share %q (want num/den or percent)", s)
	}
	return core.Share{Num: pct, Den: 100}, nil
}
