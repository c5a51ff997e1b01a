package exp

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestQuick is the CI race-detector smoke test: it drives parallelDo
// and the Runner's concurrent memoization (shared memo map, in-flight
// entries, cycle accounting) with overlapping keys, which is exactly
// the state `go test -race` needs to see under contention. It is
// deliberately small enough to finish in seconds under -race. The
// audited input is CI's invariant-audit run of the experiment path; the
// checkpointing input additionally has concurrent callers of one key
// contend for that key's checkpoint and result files.
func TestQuick(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain":      {},
		"audit":      {Audit: true},
		"checkpoint": {Dir: t.TempDir(), CheckpointEvery: 6_000},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) { testQuick(t, cfg) })
	}
}

func testQuick(t *testing.T, cfg Config) {
	cfg.Warmup, cfg.Window, cfg.Parallel = 5_000, 20_000, 4
	r := NewRunner(cfg)
	jobs := []func() error{
		func() error { _, err := r.Solo("crafty", 1); return err },
		func() error { _, err := r.Solo("crafty", 1); return err }, // memo collision
		func() error { _, err := r.Solo("art", 1); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FQ-VFTF"); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FQ-VFTF"); return err },
		func() error { _, err := r.CoRun([]string{"vpr", "art"}, "FR-FCFS"); return err },
	}
	if err := r.parallelDo(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		t.Fatal(err)
	}

	keys := r.sortedKeys()
	if len(keys) != 4 {
		t.Errorf("memo keys = %v, want 4 distinct runs", keys)
	}
	// Each key simulates exactly once, however many callers collide.
	if got := r.SimulatedCycles(); got != 4*25_000 {
		t.Errorf("SimulatedCycles = %d, want %d", got, 4*25_000)
	}
	if cfg.Dir != "" {
		left, err := filepath.Glob(filepath.Join(cfg.Dir, "*"))
		if err != nil || len(left) != 4 {
			t.Errorf("checkpoint dir holds %v (err %v), want the 4 result files only", left, err)
		}
	}

	// Memoized recall returns identical results without re-simulating.
	before := r.SimulatedCycles()
	a, err := r.Solo("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Solo("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("memoized recall diverged: %+v vs %+v", a, b)
	}
	if got := r.SimulatedCycles(); got != before {
		t.Errorf("memoized recall simulated %d extra cycles", got-before)
	}

	// parallelDo surfaces a worker's error.
	boom := errors.New("boom")
	if err := parallelDo(3, 8, func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("parallelDo error = %v, want boom", err)
	}
}

// TestParallelDoJoinsAllErrors injects two independent failures and
// demands both survive to the caller — the old first-error-wins
// collection silently dropped every failure after the lowest index.
func TestParallelDoJoinsAllErrors(t *testing.T) {
	errA := errors.New("worker 2: bad workload")
	errB := errors.New("worker 6: bad policy")
	err := parallelDo(0, 8, func(i int) error {
		switch i {
		case 2:
			return errA
		case 6:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("joined error %v lost the first failure", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("joined error %v lost the second failure", err)
	}
	if err := parallelDo(2, 4, func(int) error { return nil }); err != nil {
		t.Errorf("all-success parallelDo = %v, want nil", err)
	}
}
