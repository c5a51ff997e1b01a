package exp

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestSweepKillAndResume is the crash-resilience acceptance test: a
// sweep killed mid-run (via the stopAfterCheckpoints hook) and resumed
// with Resume must produce exactly what an uninterrupted sweep
// produces — the same Result and a byte-identical artifact directory.
// The sweep is a solo run that finishes before the kill and a co-run
// the kill lands in; the finished run then loses one member of its
// artifact set, so the resume must re-simulate it, not recall it.
func TestSweepKillAndResume(t *testing.T) {
	const benchA, benchB = "art", "vpr"
	base := Config{
		Warmup:         20_000,
		Window:         60_000,
		Seed:           3,
		SampleInterval: 10_000,
	}
	total := base.Warmup + base.Window
	solo := func(r *Runner) error { _, err := r.Solo(benchA, 1); return err }
	coRun := func(r *Runner) (sim.Result, error) { return r.CoRun([]string{benchA, benchB}, "FQ-VFTF") }

	// Uninterrupted reference sweep.
	refCfg := base
	refCfg.Dir = t.TempDir()
	ref := NewRunner(refCfg)
	if err := solo(ref); err != nil {
		t.Fatal(err)
	}
	want, err := coRun(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted sweep: dies after the co-run's second checkpoint.
	killedCfg := base
	killedCfg.Dir = t.TempDir()
	killedCfg.CheckpointEvery = 25_000
	killed := NewRunner(killedCfg)
	if err := solo(killed); err != nil {
		t.Fatal(err)
	}
	killed.stopAfterCheckpoints = 2
	if _, err := coRun(killed); !errors.Is(err, errStopped) {
		t.Fatalf("killed sweep: got error %v, want errStopped", err)
	}
	ckpts, err := filepath.Glob(filepath.Join(killedCfg.Dir, "*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("killed sweep left %d checkpoints (err %v), want 1", len(ckpts), err)
	}
	// The finished solo run loses its series file.
	if err := os.Remove(filepath.Join(killedCfg.Dir, "solo_art_x1.series.json")); err != nil {
		t.Fatal(err)
	}

	// Resumed sweep in a "fresh process" (a fresh Runner).
	resumedCfg := killedCfg
	resumedCfg.Resume = true
	resumed := NewRunner(resumedCfg)
	if err := solo(resumed); err != nil {
		t.Fatal(err)
	}
	got, err := coRun(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed Result diverged\n got: %+v\nwant: %+v", got, want)
	}
	// The incomplete solo set was re-simulated in full; the co-run
	// simulated only the remainder, not the whole run.
	if c := resumed.SimulatedCycles(); c <= total || c >= 2*total {
		t.Errorf("resumed sweep simulated %d cycles; expected one full run of %d plus a remainder", c, total)
	}
	// Completion retires the checkpoint.
	if left, _ := filepath.Glob(filepath.Join(killedCfg.Dir, "*.ckpt")); len(left) != 0 {
		t.Errorf("completed run left checkpoints behind: %v", left)
	}

	// The directory must match the uninterrupted sweep's byte for byte.
	refFiles, err := os.ReadDir(refCfg.Dir)
	if err != nil || len(refFiles) != 6 {
		t.Fatalf("reference sweep left %d artifacts (err %v), want 2 runs x 3", len(refFiles), err)
	}
	if gotFiles, _ := os.ReadDir(killedCfg.Dir); len(gotFiles) != len(refFiles) {
		t.Errorf("resumed directory holds %d files, the reference %d", len(gotFiles), len(refFiles))
	}
	for _, rf := range refFiles {
		name := rf.Name()
		wantB, err := os.ReadFile(filepath.Join(refCfg.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := os.ReadFile(filepath.Join(killedCfg.Dir, name))
		if err != nil {
			t.Fatalf("resumed sweep missing artifact %s: %v", name, err)
		}
		if string(gotB) != string(wantB) {
			i := 0
			for i < len(gotB) && i < len(wantB) && gotB[i] == wantB[i] {
				i++
			}
			t.Errorf("artifact %s differs at byte %d", name, i)
		}
	}

	// A second resumed sweep recalls both complete sets without
	// simulating anything.
	again := NewRunner(resumedCfg)
	if err := solo(again); err != nil {
		t.Fatal(err)
	}
	res2, err := coRun(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, want) {
		t.Error("recalled persisted result diverged")
	}
	if c := again.SimulatedCycles(); c != 0 {
		t.Errorf("recall simulated %d cycles, want 0", c)
	}
}

// TestCheckpointSweepUninterrupted: checkpointing on but never killed —
// results must match a plain sweep and the run must not leave
// checkpoints behind.
func TestCheckpointSweepUninterrupted(t *testing.T) {
	base := Config{Warmup: 10_000, Window: 30_000, Seed: 9}

	plain := NewRunner(base)
	want, err := plain.CoRun([]string{"art", "vpr"}, "FR-VFTF")
	if err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	cfg := base
	cfg.Dir = ckptDir
	cfg.CheckpointEvery = 7_000
	ck := NewRunner(cfg)
	got, err := ck.CoRun([]string{"art", "vpr"}, "FR-VFTF")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointing changed the result\n got: %+v\nwant: %+v", got, want)
	}
	if left, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt")); len(left) != 0 {
		t.Errorf("uninterrupted run left checkpoints: %v", left)
	}
}
