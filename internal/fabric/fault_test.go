package fabric

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestFabricWorkerProcess is not a test of its own: it is the worker
// body the fault-injection test re-executes this test binary to run,
// gated on the coordinator URL arriving via the environment. Running
// the package's tests normally just skips it.
func TestFabricWorkerProcess(t *testing.T) {
	coord := os.Getenv("FABRIC_WORKER_COORD")
	if coord == "" {
		t.Skip("helper process for TestFaultInjectionKillWorker")
	}
	delayMS, _ := strconv.Atoi(os.Getenv("FABRIC_WORKER_DELAY_MS"))
	w := &Worker{
		Coordinator: coord,
		Dir:         os.Getenv("FABRIC_WORKER_DIR"),
		Name:        os.Getenv("FABRIC_WORKER_NAME"),
		Poll:        20 * time.Millisecond,
		EpochDelay:  time.Duration(delayMS) * time.Millisecond,
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker %s: %v", w.Name, err)
	}
}

// TestFaultInjectionKillWorker is the fabric's crash-resilience proof:
// three real worker processes shard a sweep, one is kill -9'd mid-chunk
// (after it has uploaded at least one checkpoint), and the sweep must
// still finish — the dead worker's lease expires, its chunk is
// reassigned to a survivor, the survivor resumes from the uploaded
// checkpoint rather than from scratch, and the merged artifacts are
// byte-identical to a single-process sweep that was never disturbed.
func TestFaultInjectionKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and runs the sweep twice")
	}

	job := quickJob()
	job.Window = 70_000 // 7 checkpoint epochs per chunk
	job.CheckpointEvery = 10_000
	want := serialArtifacts(t, job)

	const epochDelayMS = 120 // stretch epochs so the kill lands mid-chunk
	c, err := NewCoordinator(CoordinatorConfig{
		Job:         job,
		LeaseExpiry: 2 * time.Second,
		RetryBudget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// Spawn three workers as real OS processes (this test binary
	// re-executed into TestFabricWorkerProcess) so one can be SIGKILLed
	// with no chance to clean up.
	workers := make(map[string]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("victim-pool-%d", i)
		cmd := exec.Command(os.Args[0], "-test.run=^TestFabricWorkerProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"FABRIC_WORKER_COORD="+srv.URL(),
			"FABRIC_WORKER_DIR="+t.TempDir(),
			"FABRIC_WORKER_NAME="+name,
			"FABRIC_WORKER_DELAY_MS="+strconv.Itoa(epochDelayMS),
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %s: %v", name, err)
		}
		workers[name] = cmd
		defer cmd.Process.Kill()
	}

	// Wait for a chunk that is leased and already has an uploaded
	// checkpoint, but is still early in its run — then kill its worker
	// mid-chunk.
	var victimName string
	victimChunk := -1
	deadline := time.Now().Add(60 * time.Second)
	for victimChunk < 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no worker uploaded a mid-chunk checkpoint in time; status %+v", c.Status())
		}
		for _, ch := range c.Status().Chunks {
			if ch.State == "leased" && ch.CheckpointCycle > 0 && ch.CheckpointCycle <= 40_000 {
				victimName, victimChunk = ch.Worker, ch.Chunk
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim, ok := workers[victimName]
	if !ok {
		t.Fatalf("leased chunk %d held by unknown worker %q", victimChunk, victimName)
	}
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9 %s: %v", victimName, err)
	}
	if err := victim.Wait(); err == nil {
		t.Error("SIGKILLed worker exited cleanly")
	}
	t.Logf("killed %s mid-chunk %d", victimName, victimChunk)

	// The survivors must finish the whole sweep, the victim's chunk
	// included.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep did not recover from the kill: %v (status %+v)", err, c.Status())
	}
	for name, cmd := range workers {
		if name == victimName {
			continue
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("surviving worker %s: %v", name, err)
		}
	}

	// The victim's chunk was reassigned and resumed, not restarted.
	st := c.Status()
	vc := st.Chunks[victimChunk]
	if vc.State != "done" {
		t.Fatalf("victim chunk %d ended %s", victimChunk, vc.State)
	}
	if vc.Attempts < 2 {
		t.Errorf("victim chunk %d completed with %d attempts; the kill never forced a reassignment", victimChunk, vc.Attempts)
	}
	if vc.ResumedFrom <= 0 {
		t.Errorf("victim chunk %d restarted from scratch instead of resuming from its checkpoint", victimChunk)
	}
	if vc.Worker == victimName {
		t.Errorf("victim chunk %d still attributed to the dead worker", victimChunk)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}

	// And none of it shows in the output: byte-identical to the serial,
	// never-killed sweep.
	merged := t.TempDir()
	if err := c.WriteMerged(merged); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, want, merged)
}
