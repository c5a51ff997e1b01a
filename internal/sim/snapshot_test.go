package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// runState is everything observable about a finished run: the Result,
// the epoch series, and the complete process state, the final checkpoint
// bytes, which hold the virtual clock, command counts, cache hits and
// misses, policy registers, queues, attribution cube and series. Two
// runs, fast or strict, straight or restored, are equivalent exactly
// when their runStates are equal.
type runState struct {
	Result Result
	Epochs []epoch
	ckpt   []byte // excluded from JSON artifacts
}

func captureRun(t *testing.T, s *System) runState {
	t.Helper()
	st := runState{Result: s.Results()}
	if s.Sampler() != nil {
		st.Epochs = epochs(t, s)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	st.ckpt = buf.Bytes()
	return st
}

// dumpArtifact writes got/want JSON next to the test data so a CI
// failure leaves something inspectable to download.
func dumpArtifact(t *testing.T, name string, got, want runState) {
	t.Helper()
	dir := filepath.Join("testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	for _, f := range []struct {
		suffix string
		v      runState
	}{{"got", got}, {"want", want}} {
		b, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			t.Logf("artifact marshal: %v", err)
			return
		}
		p := filepath.Join(dir, fmt.Sprintf("%s.%s.json", name, f.suffix))
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
		} else {
			t.Logf("wrote %s", p)
		}
	}
}

func compareRuns(t *testing.T, name string, got, want runState) {
	t.Helper()
	bad := false
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("Result diverged\n got: %+v\nwant: %+v", got.Result, want.Result)
		bad = true
	}
	if !reflect.DeepEqual(got.Epochs, want.Epochs) {
		t.Errorf("epoch sample series diverged (%d vs %d samples)", len(got.Epochs), len(want.Epochs))
		bad = true
	}
	if !bytes.Equal(got.ckpt, want.ckpt) {
		i := 0
		for i < len(got.ckpt) && i < len(want.ckpt) && got.ckpt[i] == want.ckpt[i] {
			i++
		}
		t.Errorf("final process state diverged: checkpoint bytes differ at offset %d (%d vs %d bytes)",
			i, len(got.ckpt), len(want.ckpt))
		bad = true
	}
	if bad {
		dumpArtifact(t, name, got, want)
	}
}

// TestCheckpointRestoreBitIdentical is the tentpole's contract: run
// N+M cycles straight, versus run N, checkpoint, restore into a fresh
// system (standing in for a fresh process), and run M — across the full
// {policy} x {fast, strict} x {audit} x {sampler} matrix, where a strict
// cell checkpoints a strict run and finishes it fast, against a reference
// that runs strict throughout (a checkpoint does not record the mode).
// Every observable — Result, epoch series (the fairness series is a
// function of it), and the complete final process state — must be
// bit-identical. The checkpoint lands at
// an odd cycle inside the measurement window, so it cuts skip-ahead
// spans and a live measurement baseline, not just quiescent boundaries.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name    string
		factory PolicyFactory
	}{
		{"FCFS", FCFS},
		{"FR-FCFS", FRFCFS},
		{"FR-VFTF", FRVFTF},
		{"FQ-VFTF", FQVFTF},
		{"FR-VSTF", FRVSTF},
		{"BLISS", BLISS},
		{"SLOW-FAIR", SLOWFAIR},
		{"BANK-BW", BANKBW},
	}
	for _, p := range policies {
		for _, strict := range []bool{false, true} {
			for _, auditOn := range []bool{false, true} {
				for _, sample := range []int64{0, 1_000} {
					p, strict, auditOn, sample := p, strict, auditOn, sample
					name := fmt.Sprintf("%s/strict=%v/audit=%v/sample=%d", p.name, strict, auditOn, sample)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						if testing.Short() && (strict || !auditOn || sample == 0) {
							t.Skip("full matrix is slow; -short runs fast+audit+sampler cells only")
						}
						restoreMidWindow(t, "snapshot-"+p.name+sanitize(name), Config{
							Workload:       []trace.Profile{art, vpr},
							Policy:         p.factory,
							Seed:           23,
							Strict:         strict,
							Audit:          auditOn,
							SampleInterval: sample,
						}, strict)
					})
				}
			}
		}
	}
}

// TestCheckpointFRVFTFArrival: the arrival-time ablation's Key freezes
// the request it ranks the first time it examines it, so a restore keeps
// its keys only through the request's own Key and KeyFrozen fields, with
// no key cache on the wire. One cell, fast with every observer on; a
// full matrix row would cost more than the race job has left.
func TestCheckpointFRVFTFArrival(t *testing.T) {
	restoreMidWindow(t, "snapshot-FR-VFTF-arrival", Config{
		Workload: []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy: func(s []core.Share, n int, tt dram.Timing) core.Policy {
			return core.NewFRVFTFArrival(s, n, tt)
		},
		Seed:           23,
		Audit:          true,
		Interference:   true,
		SampleInterval: 1_000,
	}, false)
}

// restoreMidWindow runs cfg straight through a measurement window and
// again checkpointed at an odd cycle inside it, restored into a fresh
// system (standing in for a fresh process), under the other stepping
// mode when crossMode is set, and finished there. The restored system
// re-checkpoints to the same bytes and has done no scheduler work yet
// (SchedCounts is simulator work, not state), and the two runs must be
// equal in every observable.
func restoreMidWindow(t *testing.T, name string, cfg Config, crossMode bool) {
	t.Helper()
	const warmup, preCk, postCk = 2_000, 3_001, 4_999

	// Uninterrupted reference run.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Step(warmup)
	ref.BeginMeasurement()
	ref.Step(preCk + postCk)
	ref.FinishAudit()
	want := captureRun(t, ref)

	// Interrupted run: checkpoint mid-window, restore into a fresh
	// system, finish there.
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Step(warmup)
	first.BeginMeasurement()
	first.Step(preCk)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	saved := buf.Bytes()

	resumeCfg := cfg
	resumeCfg.Strict = cfg.Strict != crossMode
	resumed, err := Restore(resumeCfg, bytes.NewReader(saved))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !resumed.MeasurementStarted() {
		t.Fatal("restored system lost its measurement baseline")
	}
	if resumed.Cycle() != warmup+preCk {
		t.Fatalf("restored at cycle %d, want %d", resumed.Cycle(), warmup+preCk)
	}
	if got := resumed.Controller().SchedCounts(); got != (memctrl.SchedCounts{}) {
		t.Errorf("restored system's SchedCounts = %+v, want zero", got)
	}

	// Re-checkpointing the restored system must reproduce the snapshot
	// byte for byte: restore loses nothing.
	var buf2 bytes.Buffer
	if err := resumed.Checkpoint(&buf2); err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if b2 := buf2.Bytes(); !bytes.Equal(saved, b2) {
		i := 0
		for i < len(saved) && i < len(b2) && saved[i] == b2[i] {
			i++
		}
		t.Fatalf("re-checkpoint of restored system differs at offset %d (%d vs %d bytes)",
			i, len(saved), len(b2))
	}

	resumed.Step(postCk)
	resumed.FinishAudit()
	compareRuns(t, name, captureRun(t, resumed), want)
}

func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch c {
		case '/', '=', ' ':
			b[i] = '_'
		}
	}
	return string(b)
}

// TestCheckpointInsideRefreshWindow checkpoints while channel 0 is mid
// refresh — the one span where the virtual clock is paused — and
// requires the resumed run to remain bit-identical through several more
// refresh windows, audited and sampled. Every policy runs on two
// channels, and FQ-VFTF on one as well.
func TestCheckpointInsideRefreshWindow(t *testing.T) {
	type row struct {
		name     string
		factory  PolicyFactory
		channels int
	}
	rows := []row{{"FQ-VFTF/1ch", FQVFTF, 1}}
	for _, name := range PolicyNames() {
		factory, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name + "/2ch", factory, 2})
	}
	stepIntoRefresh := func(t *testing.T, s *System) {
		t.Helper()
		for i := 0; i < 30_000; i++ {
			s.Step(1)
			if s.Controller().Channel().InRefresh(s.Cycle()) {
				return
			}
		}
		t.Fatal("no refresh window reached")
	}
	const tail = 30_000
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
				Policy:         r.factory,
				Seed:           17,
				Audit:          true,
				SampleInterval: 1_000,
			}
			cfg.Mem.Channels = r.channels
			cfg.Mem.DRAM = dram.DefaultConfig()
			cfg.Mem.DRAM.Timing.TREF = 7_000

			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Step(2_000)
			ref.BeginMeasurement()
			stepIntoRefresh(t, ref)
			ckCycle := ref.Cycle()
			ref.Step(tail)
			ref.FinishAudit()
			want := captureRun(t, ref)
			if n := ref.Controller().CommandCount(dram.KindRefresh); n < 3*int64(r.channels) {
				t.Errorf("run issued only %d refreshes", n)
			}

			first, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first.Step(2_000)
			first.BeginMeasurement()
			stepIntoRefresh(t, first)
			if first.Cycle() != ckCycle {
				t.Fatalf("refresh reached at cycle %d, reference at %d", first.Cycle(), ckCycle)
			}
			var buf bytes.Buffer
			if err := first.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			resumed, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Controller().Channel().InRefresh(resumed.Cycle()) {
				t.Fatal("restored system is not mid-refresh")
			}
			resumed.Step(tail)
			resumed.FinishAudit()
			got := captureRun(t, resumed)
			compareRuns(t, "snapshot-refresh-window-"+sanitize(r.name), got, want)
		})
	}
}

// TestCheckpointFileRoundTrip exercises the atomic file helpers.
func TestCheckpointFileRoundTrip(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: []trace.Profile{art, art}, Policy: FQVFTF, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5_000)
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := s.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycle() != s.Cycle() {
		t.Fatalf("restored cycle %d, want %d", r.Cycle(), s.Cycle())
	}
	var a, b bytes.Buffer
	if err := s.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("file round trip lost state")
	}
}

// TestRestoreConfigMismatch: a snapshot restored under any different
// configuration — run or machine — must fail with an error, not silently
// resume a different experiment. The stepping mode is not part of it: a
// fast checkpoint restores under Strict and finishes as the
// uninterrupted run does.
func TestRestoreConfigMismatch(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           11,
		SampleInterval: 1_000,
	}
	s, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(4_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	mutations := map[string]func(*Config){
		"policy":   func(c *Config) { c.Policy = FRFCFS },
		"seed":     func(c *Config) { c.Seed = 12 },
		"audit":    func(c *Config) { c.Audit = true },
		"sampling": func(c *Config) { c.SampleInterval = 0 },
		"interval": func(c *Config) { c.SampleInterval = 2_000 },
		"workload": func(c *Config) { c.Workload = []trace.Profile{vpr, art} },
		"cores":    func(c *Config) { c.Workload = []trace.Profile{art, vpr, art} },
		"transit":  func(c *Config) { c.ReqTransit = 20 },
		"geometry": func(c *Config) { c.Mem = memctrl.DefaultConfig(2); c.Mem.Channels = 2 },
		"tREF": func(c *Config) {
			c.Mem.DRAM = dram.DefaultConfig()
			c.Mem.DRAM.Timing.TREF = 7_000
		},
		"tRCD-tRAS": func(c *Config) {
			c.Mem.DRAM = dram.DefaultConfig()
			c.Mem.DRAM.Timing.TRCD, c.Mem.DRAM.Timing.TRAS = 6, 19
		},
		"row policy":     func(c *Config) { c.Mem.RowPolicy = memctrl.OpenRow },
		"shared buffers": func(c *Config) { c.Mem.SharedBuffers = true },
		"refresh off":    func(c *Config) { c.Mem.DisableRefresh = true },
		"linear mapper": func(c *Config) {
			m, err := addrmap.NewLinear(addrmap.Table5())
			if err != nil {
				t.Fatal(err)
			}
			c.Mem.Mapper = m
		},
		"memory scale": func(c *Config) {
			scaled, err := NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			c.Mem = scaled.Mem
		},
		"cpu width": func(c *Config) {
			c.CPU = cpu.DefaultConfig()
			c.CPU.DispatchWidth = 2
		},
		"L2 latency": func(c *Config) {
			c.Cache = cache.DefaultHierarchyConfig()
			c.Cache.L2.Latency = 14
		},
	}
	for name, mutate := range mutations {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Restore(cfg, bytes.NewReader(snap)); err == nil {
				t.Fatalf("restore under mutated config %q succeeded; want error", name)
			}
		})
	}

	// The unmutated config still restores, and so does it under Strict,
	// finishing as the uninterrupted fast run does.
	if _, err := Restore(base, bytes.NewReader(snap)); err != nil {
		t.Fatalf("restore under original config failed: %v", err)
	}
	t.Run("strict", func(t *testing.T) {
		cfg := base
		cfg.Strict = true
		resumed, err := Restore(cfg, bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("fast checkpoint refused under Strict: %v", err)
		}
		resumed.Step(4_000)
		s.Step(4_000)
		compareRuns(t, "snapshot-cross-mode", captureRun(t, resumed), captureRun(t, s))
	})
}

// TestCheckpointRefusesTraceSink: a streaming trace sink cannot be
// resumed, so Checkpoint must refuse rather than write a snapshot that
// silently truncates the timeline.
func TestCheckpointRefusesTraceSink(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tw := metrics.NewTraceWriter(&sink)
	cfg := Config{Workload: []trace.Profile{art}, Trace: tw}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(1_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err == nil {
		t.Fatal("checkpoint with a trace sink succeeded; want error")
	}
}

// TestRunToChunks holds the one run loop to its contract for every way
// a caller chunks it: whatever the chunk length, and whether the system
// is fresh or was restored mid-warm-up or mid-window, the Result and the
// complete final process state equal RunSystem's straight run; atChunk
// fires at exactly the chunk ends (each chunk measured from the previous
// end, cut at the warm-up boundary) and never at total; and
// BeginMeasurement lands on the warm-up cycle — also when the callback
// peeks at Results during warm-up, which must not start the window.
//
// The second run, FCFS over a 60k-cycle window sampled every 700 cycles,
// is long enough that counts of the simulator's own work — refused
// Accepts retried per cycle, bank examinations — differ between
// chunkings: its series and final checkpoint hold only if neither
// carries them.
func TestRunToChunks(t *testing.T) {
	type run struct {
		cfg           Config
		warmup, total int64
		want          runState
	}
	short := &run{cfg: Config{
		Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:         FQVFTF,
		Seed:           23,
		Audit:          true,
		SampleInterval: 1_000,
	}, warmup: 2_000, total: 9_000}
	long := &run{cfg: Config{
		Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:         FCFS,
		Seed:           31,
		SampleInterval: 700,
	}, warmup: 1_000, total: 61_000}
	for _, r := range []*run{short, long} {
		ref, _, err := RunSystem(r.cfg, r.warmup, r.total-r.warmup)
		if err != nil {
			t.Fatal(err)
		}
		r.want = captureRun(t, ref)
		if r.want.Result.Cycles != r.total-r.warmup {
			t.Fatalf("straight run measured %d cycles, want %d", r.want.Result.Cycles, r.total-r.warmup)
		}
	}
	for _, tc := range []struct {
		name      string
		run       *run
		restoreAt int64 // 0 = fresh system
		every     int64
		stops     []int64 // nil = check the chunking properties only
		peek      bool    // atChunk calls Results
	}{
		{"every=1", short, 0, 1, nil, false},
		{"every=7", short, 0, 7, nil, false},
		{"every=warmup-1", short, 0, short.warmup - 1, []int64{1_999, 2_000, 3_999, 5_998, 7_997}, false},
		{"every=warmup", short, 0, short.warmup, []int64{2_000, 4_000, 6_000, 8_000}, false},
		{"every=warmup+1", short, 0, short.warmup + 1, []int64{2_000, 4_001, 6_002, 8_003}, false},
		{"every=total+1", short, 0, short.total + 1, []int64{2_000}, false},
		{"unchunked", short, 0, 0, []int64{2_000}, false},
		{"restored mid-warm-up", short, 1_234, 3_000, []int64{2_000, 5_000, 8_000}, false},
		{"restored mid-window", short, 4_321, 3_000, []int64{7_321}, false},
		{"results peeked mid-warm-up", short, 0, 700, []int64{700, 1_400, 2_000, 2_700, 3_400, 4_100, 4_800, 5_500, 6_200, 6_900, 7_600, 8_300}, true},
		{"FCFS/every=7", long, 0, 7, nil, false},
		{"FCFS/every=997", long, 0, 997, nil, false},
		{"FCFS/every=1777", long, 0, 1_777, nil, false},
		{"FCFS/restored mid-window", long, 30_001, 1_777, nil, false},
	} {
		tc, r := tc, tc.run
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.restoreAt > 0 {
				// Interrupt a chunked run at restoreAt and continue in a
				// fresh system, as a resumed process would.
				if err := s.RunTo(r.warmup, tc.restoreAt, 500, nil); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := s.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if s, err = Restore(r.cfg, &buf); err != nil {
					t.Fatal(err)
				}
			}
			start := s.Cycle()
			var stops []int64
			err = s.RunTo(r.warmup, r.total, tc.every, func() (int64, error) {
				if tc.peek {
					if res := s.Results(); s.Cycle() < r.warmup && res.Cycles != s.Cycle() {
						t.Errorf("warm-up peek at cycle %d covers %d cycles", s.Cycle(), res.Cycles)
					}
				}
				if s.MeasurementStarted() != (s.Cycle() >= r.warmup) {
					t.Errorf("at cycle %d MeasurementStarted = %v", s.Cycle(), s.MeasurementStarted())
				}
				stops = append(stops, s.Cycle())
				return tc.every, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.stops != nil && !reflect.DeepEqual(stops, tc.stops) {
				t.Errorf("atChunk fired at %v, want %v", stops, tc.stops)
			}
			prev, sawWarmup := start, start >= r.warmup
			for _, c := range stops {
				if c <= prev || c >= r.total || (tc.every > 0 && c-prev > tc.every) {
					t.Fatalf("chunk end %d after %d breaks (prev, prev+%d] below %d", c, prev, tc.every, r.total)
				}
				sawWarmup = sawWarmup || c == r.warmup
				prev = c
			}
			if !sawWarmup {
				t.Errorf("no chunk ended on the warm-up boundary: %v", stops)
			}
			compareRuns(t, "runto-"+sanitize(tc.name), captureRun(t, s), r.want)
		})
	}

	// An atChunk error stops the run where it is.
	s, err := New(short.cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := s.RunTo(short.warmup, short.total, 700, func() (int64, error) { return 0, boom }); !errors.Is(err, boom) || s.Cycle() != 700 {
		t.Errorf("RunTo = %v at cycle %d, want boom at 700", err, s.Cycle())
	}
}
