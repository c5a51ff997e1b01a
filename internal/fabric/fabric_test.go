package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
)

// quickJob is the test battery's sweep: the paper's headline pair on
// one channel — 6 policy cells plus 2 solo baselines = 8 chunks —
// small enough to run twice (serial reference + sharded) in a test.
func quickJob() JobSpec {
	return JobSpec{
		Spec: exp.ArenaSpec{
			Mixes:    [][]string{{"vpr", "art"}},
			Shares:   []core.Share{{}},
			Channels: []int{1},
		},
		Warmup:          10_000,
		Window:          40_000,
		Seed:            3,
		SampleInterval:  10_000,
		CheckpointEvery: 20_000,
	}
}

// serialArtifacts runs the job in one process — the exp.Runner path a
// non-distributed sweep uses — and returns every artifact it leaves
// behind (every run's artifact set plus the arena.csv/arena.json an
// `experiments -out` sweep writes), keyed by filename.
func serialArtifacts(t *testing.T, job JobSpec) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	r := exp.NewRunner(job.ExpConfig(dir))
	arena, err := r.Arena(job.Spec)
	if err != nil {
		t.Fatalf("serial reference sweep: %v", err)
	}
	out := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	sweep, err := arena.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sweep {
		out[a.Name] = a.Data
	}
	return out
}

// compareDirs demands dir hold exactly the reference artifacts, byte
// for byte.
func compareDirs(t *testing.T, want map[string][]byte, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, e := range entries {
		got[e.Name()] = true
		wantB, ok := want[e.Name()]
		if !ok {
			t.Errorf("merged output has extra file %s", e.Name())
			continue
		}
		gotB, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, wantB) {
			i := 0
			for i < len(gotB) && i < len(wantB) && gotB[i] == wantB[i] {
				i++
			}
			t.Errorf("artifact %s differs from the serial sweep at byte %d", e.Name(), i)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("merged output missing artifact %s", name)
		}
	}
}

// runWorkers drives n concurrent in-process workers to completion and
// fails the test on any worker error.
func runWorkers(t *testing.T, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Coordinator: url,
				Dir:         t.TempDir(),
				Name:        fmt.Sprintf("w%d", i),
				Poll:        5 * time.Millisecond,
			}
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestShardedSweepDeterminism is the fabric's headline acceptance
// test: a sweep sharded over 3 workers leasing chunks in a scrambled
// order must merge into artifacts byte-identical to the single-process
// exp.Runner sweep on the same spec — every per-run artifact and the
// reduced arena.csv/arena.json alike.
func TestShardedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	job := quickJob()
	want := serialArtifacts(t, job)

	c, err := NewCoordinator(CoordinatorConfig{Job: job, LeaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	runWorkers(t, srv.URL, 3)

	if !c.Done() {
		t.Fatal("workers exited but the coordinator is not done")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("queue invariants violated: %v", err)
	}
	merged := t.TempDir()
	if err := c.WriteMerged(merged); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, want, merged)

	// Every checkpoint was released with its chunk: what the store still
	// holds is the artifact sets (less whatever deduplicated).
	sets, err := c.sets()
	if err != nil {
		t.Fatal(err)
	}
	var artifactBytes int64
	for _, set := range sets {
		for _, a := range set {
			artifactBytes += int64(len(a.Data))
		}
	}
	if st := c.Status(); st.StoreBytes > artifactBytes {
		t.Errorf("store holds %d bytes after the sweep, the artifact sets total %d", st.StoreBytes, artifactBytes)
	}

	// Progress aggregated the whole matrix: every chunk's full cycle
	// count was credited exactly once across heartbeats + completions.
	snap := c.Progress().Snapshot()
	wantCycles := int64(len(exp.ArenaUnits(job.Spec))) * job.TotalCycles()
	if snap.SimCycles != wantCycles {
		t.Errorf("progress credited %d cycles, want %d", snap.SimCycles, wantCycles)
	}
	if snap.Done != snap.Total || snap.Done != len(exp.ArenaUnits(job.Spec)) {
		t.Errorf("progress done/total = %d/%d, want %d/%d", snap.Done, snap.Total, len(exp.ArenaUnits(job.Spec)), len(exp.ArenaUnits(job.Spec)))
	}
}

// fakeClock is a hand-cranked coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// request is a test-side raw HTTP call against the handler.
func request(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// hbPath is the /heartbeat target for a lease and cycle; the snapshot,
// if any, is the request's raw body.
func hbPath(lease string, cycle any) string {
	return fmt.Sprintf("/heartbeat?lease=%s&cycle=%v", lease, cycle)
}

// completion is the /complete body for a lease: the artifact set the
// job defines for the leased unit, every member holding data.
func completion(job JobSpec, l leaseResponse, data string) string {
	req := completeRequest{Lease: l.Lease, Cycle: job.TotalCycles()}
	for _, name := range job.ExpConfig("").ArtifactNames(l.Unit.Key) {
		req.Artifacts = append(req.Artifacts, exp.Artifact{Name: name, Data: []byte(data)})
	}
	b, _ := json.Marshal(req)
	return string(b)
}

func decodeLease(t *testing.T, rec *httptest.ResponseRecorder) leaseResponse {
	t.Helper()
	var l leaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
		t.Fatalf("lease reply %q: %v", rec.Body.String(), err)
	}
	return l
}

// TestLeaseProtocolInvariants walks the lease lifecycle with a fake
// clock: expiry reassigns a chunk to a new lease resuming from the
// last uploaded checkpoint, late heartbeats and duplicate/replayed
// completions 409 without disturbing state, a completion whose artifact
// names are not exactly the job's is a 400 that leaves the lease live
// and the store untouched, a chunk serves only its newest checkpoint and
// none once done (a worker sent to fetch a vanished one drops the chunk
// as a lost lease), and an exhausted retry budget fails the job instead
// of looping forever.
func TestLeaseProtocolInvariants(t *testing.T) {
	job := quickJob()
	job.SampleInterval = 0 // protocol-only test: completions carry just results
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c, err := NewCoordinator(CoordinatorConfig{
		Job:         job,
		LeaseExpiry: 10 * time.Second,
		RetryBudget: 3,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	check := func(step string) {
		t.Helper()
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: invariants violated: %v", step, err)
		}
	}
	blob := func(hash string) (int, string) {
		t.Helper()
		rec := request(t, h, http.MethodGet, "/blob/"+hash, "")
		return rec.Code, rec.Body.String()
	}

	// Method and body hygiene.
	if rec := request(t, h, http.MethodGet, "/lease", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /lease: code %d, want 405", rec.Code)
	}
	if rec := request(t, h, http.MethodPost, "/lease", "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON lease: code %d, want 400", rec.Code)
	}
	if rec := request(t, h, http.MethodPost, "/lease", `{"worker":"w"} trailing`); rec.Code != http.StatusBadRequest {
		t.Errorf("trailing garbage: code %d, want 400", rec.Code)
	}
	check("hygiene")

	// Grant, heartbeat with a checkpoint, let the lease expire.
	l1 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w1"}`))
	if l1.Status != statusLease || l1.Lease != "l1" || l1.Attempt != 1 || l1.Checkpoint != "" {
		t.Fatalf("first lease: %+v", l1)
	}
	if code, _ := blob(""); code != http.StatusNotFound {
		t.Errorf("empty blob address with checkpoint-less chunks about: code %d, want 404", code)
	}
	hb := hbPath("l1", 20_000)
	if rec := request(t, h, http.MethodPost, hb, "snapshot-epoch-2"); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat: code %d body %s", rec.Code, rec.Body)
	}
	if rec := request(t, h, http.MethodPost, hbPath("l1", -4), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("negative cycle: code %d, want 400", rec.Code)
	}
	for _, cycle := range []string{"many", "", "2e4", "99999999999999999999"} {
		if rec := request(t, h, http.MethodPost, hbPath("l1", cycle), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("wrong-typed cycle %q: code %d, want 400", cycle, rec.Code)
		}
	}
	if rec := request(t, h, http.MethodPost, "/heartbeat", `{"lease":"l1","cycle":20000}`); rec.Code != http.StatusBadRequest {
		t.Errorf("heartbeat with no query: code %d, want 400", rec.Code)
	}
	check("heartbeat")

	clock.Advance(11 * time.Second)

	// The expired chunk is reassigned — same chunk, new lease, resume
	// checkpoint attached.
	l2 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w2"}`))
	if l2.Status != statusLease || l2.Chunk != l1.Chunk || l2.Lease == l1.Lease || l2.Attempt != 2 {
		t.Fatalf("reassigned lease: %+v", l2)
	}
	if l2.Checkpoint == "" || l2.CheckpointCycle != 20_000 {
		t.Fatalf("reassignment lost the uploaded checkpoint: %+v", l2)
	}
	if code, body := blob(l2.Checkpoint); code != http.StatusOK || body != "snapshot-epoch-2" {
		t.Errorf("resume blob: code %d body %q", code, body)
	}
	check("reassign")

	// The dead lease is dead: late heartbeat and late completion 409.
	if rec := request(t, h, http.MethodPost, hb, "snapshot-from-the-dead"); rec.Code != http.StatusConflict {
		t.Errorf("late heartbeat: code %d, want 409", rec.Code)
	}
	if code, body := blob(l2.Checkpoint); code != http.StatusOK || body != "snapshot-epoch-2" {
		t.Errorf("late heartbeat disturbed the resume blob: code %d body %q", code, body)
	}
	if rec := request(t, h, http.MethodPost, "/complete", completion(job, l1, "{}")); rec.Code != http.StatusConflict {
		t.Errorf("late completion: code %d, want 409", rec.Code)
	}
	check("late messages")

	// Legitimate completion; then a replay of the same body must 409
	// and must not double-count or reassign.
	comp2 := completion(job, l2, "{}")
	if rec := request(t, h, http.MethodPost, "/complete", comp2); rec.Code != http.StatusOK {
		t.Fatalf("completion: code %d body %s", rec.Code, rec.Body)
	}
	if rec := request(t, h, http.MethodPost, "/complete", comp2); rec.Code != http.StatusConflict {
		t.Errorf("duplicate completion: code %d, want 409", rec.Code)
	}
	st := c.Status()
	if st.Done != 1 || st.Chunks[l2.Chunk].State != "done" {
		t.Fatalf("after duplicate completion: %+v", st)
	}
	if code, _ := blob(l2.Checkpoint); code != http.StatusNotFound {
		t.Errorf("a done chunk's checkpoint: code %d, want 404", code)
	}
	// Hostile completion with a non-Result body is a clean 400.
	l3 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w3"}`))
	if l3.Chunk == l2.Chunk {
		t.Fatalf("done chunk %d was reassigned", l2.Chunk)
	}
	if rec := request(t, h, http.MethodPost, "/complete", completion(job, l3, `["not","a","result"]`)); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage result: code %d, want 400", rec.Code)
	}
	check("completion")

	// Artifact names become file names in the merge: anything but the
	// job's own list is a 400 that stores nothing and keeps the lease.
	good := exp.Artifact{Name: job.ExpConfig("").ArtifactNames(l3.Unit.Key)[0], Data: []byte("{}")}
	blobsBefore, _, _ := c.Store().Stats()
	for name, set := range map[string][]exp.Artifact{
		"unknown name":  {{Name: "evil.result.json", Data: good.Data}},
		"parent path":   {{Name: "../" + good.Name, Data: good.Data}},
		"nested path":   {{Name: "a/" + good.Name, Data: good.Data}},
		"absolute path": {{Name: "/tmp/" + good.Name, Data: good.Data}},
		"duplicate":     {good, good},
		"extra member":  {good, {Name: "extra.bin", Data: good.Data}},
		"missing":       {},
		"empty member":  {{Name: good.Name}},
	} {
		body, _ := json.Marshal(completeRequest{Lease: l3.Lease, Cycle: 50_000, Artifacts: set})
		if rec := request(t, h, http.MethodPost, "/complete", string(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d body %s, want 400", name, rec.Code, rec.Body)
		}
		check(name)
	}
	if blobs, _, _ := c.Store().Stats(); blobs != blobsBefore {
		t.Errorf("hostile completions stored %d blobs", blobs-blobsBefore)
	}
	if rec := request(t, h, http.MethodPost, hbPath(l3.Lease, 1), ""); rec.Code != http.StatusOK {
		t.Errorf("lease after hostile completions: code %d, want it still live", rec.Code)
	}

	// Retry budget: expire l3's chunk twice more; the third expiry
	// exhausts the budget and fails the job for everyone. On the way, one
	// live checkpoint per chunk: w4 is granted the chunk with checkpoint
	// X to resume from and loses its lease before fetching it; w5 takes
	// over and uploads Y; X is gone, and w4 drops the chunk as a lost
	// lease rather than dying on a 404.
	if rec := request(t, h, http.MethodPost, hbPath(l3.Lease, 20_000), "checkpoint-X"); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat X: code %d body %s", rec.Code, rec.Body)
	}
	clock.Advance(11 * time.Second)
	l4 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w4"}`))
	if l4.Chunk != l3.Chunk || l4.Attempt != 2 || l4.Checkpoint != blobHash([]byte("checkpoint-X")) {
		t.Fatalf("expected chunk %d attempt 2 resuming from X, got %+v", l3.Chunk, l4)
	}
	clock.Advance(11 * time.Second)
	l5 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w5"}`))
	if l5.Chunk != l3.Chunk || l5.Attempt != 3 || l5.Checkpoint != l4.Checkpoint {
		t.Fatalf("expected chunk %d attempt 3 resuming from X, got %+v", l3.Chunk, l5)
	}
	if rec := request(t, h, http.MethodPost, hbPath(l5.Lease, 40_000), "checkpoint-Y"); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat Y: code %d body %s", rec.Code, rec.Body)
	}
	check("superseded checkpoint")
	if code, _ := blob(l4.Checkpoint); code != http.StatusNotFound {
		t.Errorf("superseded checkpoint X: code %d, want 404", code)
	}
	if code, body := blob(blobHash([]byte("checkpoint-Y"))); code != http.StatusOK || body != "checkpoint-Y" {
		t.Errorf("live checkpoint Y: code %d body %q", code, body)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	w4 := &Worker{Coordinator: srv.URL, Dir: t.TempDir(), Name: "w4"}
	if err := w4.runChunk(context.Background(), job, l4); !errors.Is(err, errLeaseLost) {
		t.Errorf("worker resuming from a vanished checkpoint: %v, want errLeaseLost", err)
	}
	clock.Advance(11 * time.Second)
	lFail := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w6"}`))
	if lFail.Status != statusFailed {
		t.Fatalf("after exhausting the retry budget: %+v", lFail)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("job error = %v", err)
	}
	check("retry budget")
}

// TestConcurrentWorkersAndHostileReplays is the -race workout: real
// concurrent workers contend for leases over live HTTP while a hostile
// goroutine fires never-granted lease tokens at /heartbeat and
// /complete; afterwards, every token that was ever granted is replayed
// concurrently — pure duplicate completions and late heartbeats — and
// the queue must hold its invariants with nothing double-assigned or
// double-counted.
func TestConcurrentWorkersAndHostileReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sharded sweep")
	}
	job := quickJob()
	c, err := NewCoordinator(CoordinatorConfig{Job: job, LeaseSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	stopHostile := make(chan struct{})
	var hostileWG sync.WaitGroup
	hostileWG.Add(1)
	go func() {
		defer hostileWG.Done()
		client := srv.Client()
		for i := 0; ; i++ {
			select {
			case <-stopHostile:
				return
			default:
			}
			token := fmt.Sprintf("l9%03d", i%50) // far beyond any granted token
			resp, err := client.Post(srv.URL+hbPath(token, 1), "application/octet-stream", strings.NewReader("hostile-snapshot"))
			if err == nil {
				if resp.StatusCode != http.StatusConflict {
					t.Errorf("hostile heartbeat %s: code %d, want 409", token, resp.StatusCode)
				}
				resp.Body.Close()
			}
			comp := completion(job, leaseResponse{Lease: token}, "{}")
			resp, err = client.Post(srv.URL+"/complete", "application/json", strings.NewReader(comp))
			if err == nil {
				if resp.StatusCode != http.StatusConflict {
					t.Errorf("hostile completion %s: code %d, want 409", token, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}
	}()

	runWorkers(t, srv.URL, 6) // 6 workers, 8 chunks: real lease contention
	close(stopHostile)
	hostileWG.Wait()

	if !c.Done() {
		t.Fatal("sweep did not complete")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("invariants after contention: %v", err)
	}
	doneBefore := c.Status().Done

	// Replay every token ever granted, concurrently: all dead now.
	c.mu.Lock()
	granted := c.leaseSeq
	c.mu.Unlock()
	var wg sync.WaitGroup
	client := srv.Client()
	for i := 1; i <= granted; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			token := fmt.Sprintf("l%d", i)
			if resp, err := client.Post(srv.URL+hbPath(token, 1), "application/octet-stream", strings.NewReader("late-snapshot")); err == nil {
				if resp.StatusCode != http.StatusConflict {
					t.Errorf("late heartbeat %s: code %d, want 409", token, resp.StatusCode)
				}
				resp.Body.Close()
			}
			comp := completion(job, leaseResponse{Lease: token}, "{}")
			if resp, err := client.Post(srv.URL+"/complete", "application/json", strings.NewReader(comp)); err == nil {
				if resp.StatusCode != http.StatusConflict {
					t.Errorf("duplicate completion %s: code %d, want 409", token, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("invariants after replay storm: %v", err)
	}
	if got := c.Status().Done; got != doneBefore {
		t.Errorf("replay storm changed done count: %d -> %d", doneBefore, got)
	}
	if err := c.WriteMerged(t.TempDir()); err != nil {
		t.Errorf("merge after replay storm: %v", err)
	}
}

// TestResumeBlobVerified pins the worker's half of content addressing:
// a blob that does not hash to the address the lease named — one flipped
// byte here — is refused with an error naming both hashes, before
// anything is seeded for the runner to restore from, and is not mistaken
// for a lost lease.
func TestResumeBlobVerified(t *testing.T) {
	good := []byte("a resume checkpoint")
	bad := append([]byte(nil), good...)
	bad[3] ^= 0x40
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bad)
	}))
	defer srv.Close()

	job := quickJob()
	lease := leaseResponse{Lease: "l1", Attempt: 2, Unit: exp.ArenaUnits(job.Spec)[0], Checkpoint: blobHash(good)}
	w := &Worker{Coordinator: srv.URL, Dir: t.TempDir()}
	err := w.runChunk(context.Background(), job, lease)
	if err == nil || errors.Is(err, errLeaseLost) ||
		!strings.Contains(err.Error(), blobHash(good)) || !strings.Contains(err.Error(), blobHash(bad)) {
		t.Fatalf("corrupted resume blob: %v, want an error naming %s and %s", err, blobHash(good), blobHash(bad))
	}
	if entries, _ := os.ReadDir(w.Dir); len(entries) != 0 {
		t.Errorf("corrupted resume blob was seeded: %v", entries)
	}
	if b, err := w.getBlob(context.Background(), blobHash(bad)); err != nil || !bytes.Equal(b, bad) {
		t.Errorf("blob that hashes to its address: %q, %v", b, err)
	}
}

// TestStoreContentAddressing pins the store's dedup semantics.
func TestStoreContentAddressing(t *testing.T) {
	s := NewStore()
	h1 := s.Put([]byte("artifact"))
	h2 := s.Put([]byte("artifact"))
	h3 := s.Put([]byte("other"))
	if h1 != h2 {
		t.Errorf("identical blobs got different addresses %s / %s", h1, h2)
	}
	if h1 == h3 {
		t.Error("distinct blobs collided")
	}
	blobs, size, dedup := s.Stats()
	if blobs != 2 || size != int64(len("artifact")+len("other")) || dedup != 1 {
		t.Errorf("stats = %d blobs, %d bytes, %d dedup", blobs, size, dedup)
	}
	if b, ok := s.Get(h1); !ok || string(b) != "artifact" {
		t.Errorf("Get(%s) = %q, %v", h1, b, ok)
	}
	if _, ok := s.Get("no-such-hash"); ok {
		t.Error("Get of a bogus hash succeeded")
	}
}
