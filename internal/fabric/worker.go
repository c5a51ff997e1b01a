package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/exp"
)

// errLeaseLost marks a chunk abandoned because the coordinator no
// longer honors our lease: it expired (we were too slow) or the chunk
// completed elsewhere. The worker drops the chunk silently and leases
// the next one; the coordinator's side already moved on.
var errLeaseLost = errors.New("fabric: lease lost")

// Worker leases chunks from a coordinator and executes them through
// the exp runner: each chunk steps in checkpoint-bounded epochs, and
// every checkpoint is uploaded inside the heartbeat that renews the
// lease — so the coordinator always holds a resume point at most one
// epoch old, and a kill -9 at any instant loses at most that epoch.
type Worker struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string

	// Dir is the worker's scratch root; each chunk attempt gets a
	// fresh subdirectory so a reassigned chunk can never see another
	// attempt's files.
	Dir string

	// Name identifies the worker in leases and /status.
	Name string

	// Poll is the idle re-lease interval (0 = 100ms).
	Poll time.Duration

	// Client is the HTTP client (nil = a fresh default client).
	Client *http.Client

	// EpochDelay artificially stretches every chunk epoch before its
	// heartbeat. Zero in production; the fault-injection tests use it
	// to widen the window in which a kill -9 lands mid-chunk.
	EpochDelay time.Duration
}

// Run leases and executes chunks until the coordinator reports the job
// done (nil), the job fails, or ctx ends.
func (w *Worker) Run(ctx context.Context) error {
	if w.Dir == "" {
		return errors.New("fabric: worker needs a scratch Dir")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	var job JobSpec
	if _, err := w.getJSON(ctx, "/job", &job); err != nil {
		return fmt.Errorf("fabric: fetch job: %w", err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease leaseResponse
		if _, err := w.postJSON(ctx, "/lease", leaseRequest{Worker: w.Name}, &lease); err != nil {
			return fmt.Errorf("fabric: lease: %w", err)
		}
		switch lease.Status {
		case statusDone:
			return nil
		case statusFailed:
			return fmt.Errorf("fabric: job failed: %s", lease.Error)
		case statusWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
		case statusLease:
			if err := w.runChunk(ctx, job, lease); err != nil && !errors.Is(err, errLeaseLost) {
				return fmt.Errorf("fabric: chunk %d (%s): %w", lease.Chunk, lease.Unit.Key, err)
			}
		default:
			return fmt.Errorf("fabric: coordinator answered lease with status %q", lease.Status)
		}
	}
}

// runChunk executes one leased chunk to completion: seed the resume
// checkpoint if the coordinator holds one, run the unit through the
// exp runner (heartbeating + uploading at every checkpoint epoch via
// CheckpointSink), then upload the finished artifact set.
func (w *Worker) runChunk(ctx context.Context, job JobSpec, lease leaseResponse) error {
	dir := filepath.Join(w.Dir, fmt.Sprintf("chunk%03d-try%d", lease.Chunk, lease.Attempt))
	if lease.Checkpoint != "" {
		// A 404 here is errLeaseLost: the chunk moved on while we asked.
		ckpt, err := w.getBlob(ctx, lease.Checkpoint)
		if err != nil {
			return fmt.Errorf("fetch resume checkpoint: %w", err)
		}
		seed := []exp.Artifact{{Name: exp.CheckpointName(lease.Unit.Key), Data: ckpt}}
		if err := exp.WriteArtifacts(dir, seed); err != nil {
			return err
		}
	}
	cfg := job.ExpConfig(dir)
	cfg.Resume = true
	cfg.CheckpointSink = func(key string, cycle int64, data []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.EpochDelay > 0 {
			time.Sleep(w.EpochDelay)
		}
		return w.heartbeat(ctx, lease.Lease, cycle, data)
	}
	if _, err := exp.NewRunner(cfg).RunUnit(lease.Unit); err != nil {
		return err
	}
	// The persisted set is the run's canonical form: post it as read.
	set, err := exp.ReadArtifacts(dir, cfg.ArtifactNames(lease.Unit.Key))
	if err != nil {
		return fmt.Errorf("chunk finished with an incomplete artifact set: %w", err)
	}
	req := completeRequest{Lease: lease.Lease, Cycle: job.TotalCycles(), Artifacts: set}
	var reply statusReply
	code, err := w.postJSON(ctx, "/complete", req, &reply)
	if code == http.StatusConflict {
		return errLeaseLost
	}
	if err != nil {
		return fmt.Errorf("complete: %w", err)
	}
	return nil
}

// heartbeat renews the lease and uploads the freshest checkpoint, raw. A
// 409 means the lease expired underneath us: surface errLeaseLost so
// the runner aborts the chunk instead of wasting cycles a successor is
// already re-simulating. ckpt is the runner's reused encode buffer: the
// coordinator answers 200 only after reading the whole body, so when a
// reply that lets the run go on arrives the transport is done with it.
func (w *Worker) heartbeat(ctx context.Context, lease string, cycle int64, ckpt []byte) error {
	q := url.Values{"lease": {lease}, "cycle": {strconv.FormatInt(cycle, 10)}}
	var reply statusReply
	code, err := w.post(ctx, "/heartbeat?"+q.Encode(), "application/octet-stream", ckpt, &reply)
	if code == http.StatusConflict {
		return errLeaseLost
	}
	return err
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{}
}

// postJSON posts body as JSON; see post.
func (w *Worker) postJSON(ctx context.Context, path string, body, reply any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return w.post(ctx, path, "application/json", b, reply)
}

// post posts body and decodes the JSON reply, returning the HTTP
// status code so callers can branch on protocol-level conflicts.
func (w *Worker) post(ctx context.Context, path, contentType string, body []byte, reply any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxRequestBody))
	if err := dec.Decode(reply); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: decode %s reply: %w", path, resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return resp.StatusCode, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return resp.StatusCode, nil
}

// getJSON fetches path into reply.
func (w *Worker) getJSON(ctx context.Context, path string, reply any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Coordinator+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", path, resp.Status)
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxRequestBody))
	if err := dec.Decode(reply); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

// getBlob fetches the blob the coordinator serves under hash and holds it
// to that address: the reference is only self-verifying if the fetcher
// hashes what it got. A blob the coordinator no longer has is
// errLeaseLost — a checkpoint disappears only when its chunk took a newer
// one or completed, either way under a lease that is not ours.
func (w *Worker) getBlob(ctx context.Context, hash string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Coordinator+"/blob/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("blob %s is gone: %w", hash, errLeaseLost)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("blob %s: %s", hash, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBody))
	if err != nil {
		return nil, fmt.Errorf("blob %s: %w", hash, err)
	}
	if got := blobHash(b); got != hash {
		cut := ""
		if len(b) == maxRequestBody {
			cut = ", cut at the body cap"
		}
		return nil, fmt.Errorf("blob %s: the %d bytes fetched%s hash to %s", hash, len(b), cut, got)
	}
	return b, nil
}
