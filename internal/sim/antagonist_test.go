package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestAntagonistCalibration pins each antagonist's solo signature under
// FR-FCFS: the attacks must actually produce the memory behavior they
// claim (that is what makes the isolation properties non-vacuous).
func TestAntagonistCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	t.Parallel() // measures no allocation, so it may share the host
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
	t.Parallel() // measures no allocation, so it may share the host
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
	samples := epochs(t, s)
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
