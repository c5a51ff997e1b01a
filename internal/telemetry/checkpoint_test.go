package telemetry

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCheckpointTriggerPoll covers the trigger's rendezvous: Poll is a
// no-op when idle, services every blocked requester at once, and fans
// the checkpoint's error out to all of them.
func TestCheckpointTriggerPoll(t *testing.T) {
	trig := NewCheckpointTrigger()

	var calls atomic.Int64
	trig.Poll(func() error { calls.Add(1); return nil })
	if calls.Load() != 0 {
		t.Fatal("idle Poll ran the checkpoint function")
	}

	// Three concurrent requesters, one Poll, one checkpoint write.
	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- trig.Request(context.Background()) }()
	}
	// Wait until all three have registered, so the one Poll below is
	// the one that must answer them all. Polling before that could
	// serve a partial batch and leave the rest parked in Request.
	deadline := time.After(5 * time.Second)
	for registered := 0; registered < n; {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d requesters registered", registered, n)
		default:
			runtime.Gosched()
		}
		trig.mu.Lock()
		registered = len(trig.waiters)
		trig.mu.Unlock()
	}
	trig.Poll(func() error { calls.Add(1); return nil })
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("requester %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("checkpoint function ran %d times for one batch, want 1", calls.Load())
	}

	// Errors propagate to the requester.
	boom := errors.New("disk full")
	done := make(chan error, 1)
	go func() { done <- trig.Request(context.Background()) }()
	for {
		served := false
		trig.Poll(func() error { served = true; return boom })
		if served {
			break
		}
	}
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("got %v, want the checkpoint error", err)
	}

	// A cancelled context unblocks the requester without a Poll.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := trig.Request(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v", err)
	}
}

// TestCheckpointEndpoint exercises POST /checkpoint through a real
// server: method filtering, the 404 when no trigger is wired, and a
// full round trip with a polling loop standing in for the simulator.
func TestCheckpointEndpoint(t *testing.T) {
	// No trigger wired: 404.
	bare, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Shutdown(context.Background())
	resp, err := http.Post(bare.URL()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no trigger: status %d, want 404", resp.StatusCode)
	}

	trig := NewCheckpointTrigger()
	srv, err := Start(Config{Addr: "127.0.0.1:0", Checkpoint: trig})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// Wrong method: 405.
	status, _ := get(t, http.DefaultClient, srv.URL()+"/checkpoint")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint: status %d, want 405", status)
	}

	// Simulated stepping loop servicing on-demand checkpoints.
	var wrote atomic.Int64
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				trig.Poll(func() error { wrote.Add(1); return nil })
			}
		}
	}()

	resp, err = http.Post(srv.URL()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint: status %d, body %q", resp.StatusCode, body[:n])
	}
	if !strings.Contains(string(body[:n]), "checkpoint written") {
		t.Fatalf("POST /checkpoint body %q", body[:n])
	}
	if wrote.Load() == 0 {
		t.Fatal("endpoint returned OK but no checkpoint was written")
	}
}
