package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/trace"
)

// The antagonist profiles join every systemwide determinism suite the
// SPEC profiles are held to: fast/strict equivalence, checkpoint-resume
// bit-identity, and the zero-alloc steady state. The attack-address
// generators and the stream agent's
// deep-queue core/cache configs all sit on the hot path, so each suite
// would catch a nondeterministic or allocating regression there.

func antagonistMixes(t *testing.T) [][]trace.Profile {
	t.Helper()
	mix := func(names ...string) []trace.Profile {
		ps := make([]trace.Profile, len(names))
		for i, n := range names {
			p, err := trace.ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		return ps
	}
	return [][]trace.Profile{
		mix("vpr", "bushog"),
		mix("vpr", "rowthrash", "stream"),
		mix("diurnal", "bankhammer"),
	}
}

// TestAntagonistEquivalence holds every antagonist mix, audited, to the
// strict oracle: the event-driven fast path must reproduce the per-cycle
// path's Result and final checkpoint bytes.
func TestAntagonistEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	for mi, mix := range antagonistMixes(t) {
		for _, pol := range []struct {
			name    string
			factory PolicyFactory
		}{{"FQ-VFTF", FQVFTF}, {"FR-FCFS", FRFCFS}} {
			mix, pol := mix, pol
			t.Run(fmt.Sprintf("mix%d/%s", mi, pol.name), func(t *testing.T) {
				t.Parallel()
				run := func(strict bool) runState {
					cfg := Config{
						Workload: mix,
						Policy:   pol.factory,
						Seed:     29,
						Strict:   strict,
						Audit:    true,
					}
					cfg.Mem.Channels = 2
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.Step(20_000)
					s.BeginMeasurement()
					s.Step(60_000)
					s.FinishAudit()
					return captureRun(t, s)
				}
				compareRuns(t, fmt.Sprintf("antagonist-mix%d-%s", mi, pol.name), run(false), run(true))
			})
		}
	}
}

// TestAntagonistCheckpointResume interrupts antagonist mixes at an odd
// cycle inside the measurement window — with the auditor and epoch
// sampler live, so the diurnal generator's envelope phase and the
// attack cursors are cut mid-flight — and requires the resumed run to
// match the uninterrupted one on every observable, final process state
// included.
func TestAntagonistCheckpointResume(t *testing.T) {
	cells := []struct {
		names   []string
		factory PolicyFactory
		policy  string
	}{
		{[]string{"vpr", "diurnal"}, FQVFTF, "FQ-VFTF"},
		{[]string{"stream", "bankhammer"}, FRFCFS, "FR-FCFS"},
	}
	const warmup, preCk, postCk = 2_000, 3_001, 4_999
	for _, cell := range cells {
		cell := cell
		t.Run(fmt.Sprintf("%v/%s", cell.names, cell.policy), func(t *testing.T) {
			t.Parallel()
			ps := make([]trace.Profile, len(cell.names))
			for i, n := range cell.names {
				p, err := trace.ByName(n)
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
			}
			cfg := Config{
				Workload:       ps,
				Policy:         cell.factory,
				Seed:           31,
				Audit:          true,
				SampleInterval: 1_000,
			}

			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Step(warmup)
			ref.BeginMeasurement()
			ref.Step(preCk + postCk)
			ref.FinishAudit()
			want := captureRun(t, ref)

			first, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first.Step(warmup)
			first.BeginMeasurement()
			first.Step(preCk)
			var buf bytes.Buffer
			if err := first.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			resumed, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			resumed.Step(postCk)
			resumed.FinishAudit()
			got := captureRun(t, resumed)
			compareRuns(t, "antagonist-resume-"+cell.policy, got, want)
		})
	}
}

// TestAntagonistSteadyStateAllocs holds a mixed agent-kind, all-
// antagonist system — stream agents with their deeper queues included —
// to the same zero-allocation steady state as the SPEC mixes.
func TestAntagonistSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	names := []string{"stream", "bushog", "rowthrash", "diurnal"}
	ps := make([]trace.Profile, len(names))
	for i, n := range names {
		p, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	t.Run("workers=0", func(t *testing.T) {
		cfg := Config{
			Workload: ps,
			Policy:   FQVFTF,
			Seed:     41,
		}
		cfg.Mem.Channels = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(200_000)
		avg := testing.AllocsPerRun(10, func() {
			s.Step(5_000)
		})
		if avg != 0 {
			t.Errorf("Step allocates %.1f objects per 5k cycles in steady state, want 0", avg)
		}
	})
}

// TestAntagonistCalibration pins each antagonist's solo signature under
// FR-FCFS: the attacks must actually produce the memory behavior they
// claim (that is what makes the isolation properties non-vacuous).
func TestAntagonistCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	type band struct {
		minUtil, maxUtil     float64
		minRowHit, maxRowHit float64
	}
	// Measured solo (50k/400k): stream util .89 rowhit .79; rowthrash
	// .64/.75; bankhammer .17/.00; bushog .80/.88; diurnal .83/.79.
	bands := map[string]band{
		// The streaming agent saturates the bus with row-friendly traffic.
		"stream": {minUtil: 0.85, maxUtil: 1.0, minRowHit: 0.70, maxRowHit: 1.0},
		// Row thrashing still moves data, but alternating rows cap locality.
		"rowthrash": {minUtil: 0.50, maxUtil: 0.80, minRowHit: 0.50, maxRowHit: 0.90},
		// Every bankhammer access opens a fresh row in one bank: tRC-bound
		// trickle bandwidth and no row hits at all.
		"bankhammer": {minUtil: 0.05, maxUtil: 0.35, minRowHit: 0, maxRowHit: 0.05},
		// The bus hog streams sequentially at near-peak utilization.
		"bushog": {minUtil: 0.75, maxUtil: 1.0, minRowHit: 0.80, maxRowHit: 1.0},
		// Diurnal bursts average out high but below a pure streamer.
		"diurnal": {minUtil: 0.75, maxUtil: 0.95, minRowHit: 0.70, maxRowHit: 1.0},
	}
	for _, name := range trace.AntagonistNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := trace.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Workload: []trace.Profile{p},
				Policy:   FRFCFS,
			}, 50_000, 400_000)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Threads[0]
			b, ok := bands[name]
			if !ok {
				t.Fatalf("no calibration band for antagonist %q; add one", name)
			}
			t.Logf("%-10s util=%.3f rowhit=%.2f ipc=%.3f", name, tr.BusUtil, tr.RowHitRate, tr.IPC)
			if tr.BusUtil < b.minUtil || tr.BusUtil > b.maxUtil {
				t.Errorf("solo bus utilization %.3f outside [%.2f, %.2f]", tr.BusUtil, b.minUtil, b.maxUtil)
			}
			if tr.RowHitRate < b.minRowHit || tr.RowHitRate > b.maxRowHit {
				t.Errorf("solo row-hit rate %.3f outside [%.2f, %.2f]", tr.RowHitRate, b.minRowHit, b.maxRowHit)
			}
		})
	}
}

// TestDiurnalSamplerEnvelope checks that the epoch telemetry actually
// resolves the diurnal burst structure. The low phase barely touches
// memory, so the core rushes through it at high IPC and the idle span
// compresses to well under one 10k-cycle epoch of wall-clock time; the
// visible signature is a periodic dip in per-epoch retired loads — one
// per ~60k-instruction period — not a square wave. The pins: at least
// a 2x contrast between the deepest dip and the tallest burst, and the
// dip recurring across the run.
func TestDiurnalSamplerEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope run is slow")
	}
	p, err := trace.ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:       []trace.Profile{p},
		Policy:         FQVFTF,
		SampleInterval: 10_000,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(600_000)
	samples := s.Sampler().Samples(-1)
	if len(samples) < 30 {
		t.Fatalf("only %d epochs sampled", len(samples))
	}
	var prev int64
	var deltas []int64
	for i, sm := range samples {
		v, ok := sm.Gauges["cpu.thread0.loads_retired"]
		if !ok {
			t.Fatal("sampler is missing cpu.thread0.loads_retired")
		}
		if i > 0 { // samples[0] is the cycle-0 baseline
			deltas = append(deltas, v-prev)
		}
		prev = v
	}
	min, max := deltas[0], deltas[0]
	var total int64
	for _, d := range deltas {
		if d < 0 {
			t.Fatalf("negative per-epoch load delta %d", d)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		total += d
	}
	if min < 1 {
		min = 1
	}
	if max < 2*min {
		t.Errorf("per-epoch load deltas span [%d, %d]; want a >= 2x burst/idle contrast", min, max)
	}
	// The dip must recur — roughly once per period, so several times
	// over ~9 periods — and the burst level must dominate the run.
	mean := total / int64(len(deltas))
	dips, bursts := 0, 0
	for _, d := range deltas {
		if d <= mean*3/4 {
			dips++
		}
		if d >= mean*7/8 {
			bursts++
		}
	}
	if dips < 4 {
		t.Errorf("idle dip recurred only %d times over the run, want >= 4 (deltas %v)", dips, deltas)
	}
	if bursts < len(deltas)/2 {
		t.Errorf("only %d of %d epochs at burst level; the duty phase should dominate wall-clock time", bursts, len(deltas))
	}
}
