package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DefaultLeaseExpiry is how long a lease survives without a heartbeat
// before its chunk is reassigned.
const DefaultLeaseExpiry = 30 * time.Second

// DefaultRetryBudget is how many lease grants a chunk gets before the
// job fails: the first assignment plus two retries.
const DefaultRetryBudget = 3

// maxRequestBody bounds every request body the coordinator reads,
// checkpoint uploads included; anything larger errors cleanly instead
// of ballooning memory.
const maxRequestBody = 64 << 20

// CoordinatorConfig configures a sweep coordinator.
type CoordinatorConfig struct {
	// Job is the sweep to shard.
	Job JobSpec

	// LeaseExpiry is the heartbeat deadline (0 = DefaultLeaseExpiry).
	LeaseExpiry time.Duration

	// RetryBudget is the lease grants allowed per chunk before the job
	// fails (0 = DefaultRetryBudget).
	RetryBudget int

	// LeaseSeed, when nonzero, hands out pending chunks in a seeded
	// pseudo-random order instead of lowest-index-first. The
	// determinism tests use it to prove chunk order cannot matter.
	LeaseSeed uint64

	// Now is the coordinator's clock (nil = time.Now). Tests inject a
	// fake clock to drive lease expiry deterministically.
	Now func() time.Time
}

// chunk states.
type chunkState int

const (
	chunkPending chunkState = iota
	chunkLeased
	chunkDone
)

func (s chunkState) String() string {
	switch s {
	case chunkPending:
		return "pending"
	case chunkLeased:
		return "leased"
	case chunkDone:
		return "done"
	}
	return fmt.Sprintf("chunkState(%d)", int(s))
}

// chunk is one work unit's queue entry.
type chunk struct {
	unit     exp.Unit
	state    chunkState
	attempts int // lease grants so far
	lease    string
	worker   string
	expiry   time.Time

	// ckpt is the chunk's one live checkpoint, the newest uploaded, and
	// ckptHash its /blob address; a newer heartbeat replaces both and
	// completion drops them. The bytes are never written after upload.
	ckpt        []byte
	ckptHash    string
	ckptCycle   int64 // cycle of the newest checkpoint ever uploaded
	resumedFrom int64 // cycle the latest attempt restored from
	credited    int64 // cycles already credited to progress

	// names is the artifact set a completion must carry (the job's
	// exp.Config.ArtifactNames for the unit); blobs holds the store
	// hashes of the accepted set, parallel to names, nil until done.
	names []string
	blobs []string
}

// Coordinator owns the work queue, the lease table, and the artifact
// store for one job. All state sits behind one mutex; handlers expire
// stale leases on entry, so a dead worker's chunk returns to the queue
// the next time anyone talks to the coordinator (or Wait polls it).
type Coordinator struct {
	cfg   CoordinatorConfig
	job   JobSpec
	store *Store
	prog  *telemetry.Progress
	rng   *rand.Rand
	now   func() time.Time

	mu       sync.Mutex
	chunks   []*chunk
	leases   map[string]int // live lease token -> chunk index
	leaseSeq int
	done     int
	expired  int64 // leases lost to heartbeat timeouts, ever
	failed   error
}

// NewCoordinator shards the job into chunks (one per arena unit) and
// returns a coordinator ready to Serve.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	job := cfg.Job.withDefaults()
	units := exp.ArenaUnits(job.Spec)
	if len(units) == 0 {
		return nil, errors.New("fabric: job spec expands to zero chunks")
	}
	// Every unit must materialize before any worker burns time on it.
	for _, u := range units {
		if _, err := u.SimConfig(); err != nil {
			return nil, fmt.Errorf("fabric: invalid unit %s: %w", u.Key, err)
		}
	}
	if cfg.LeaseExpiry <= 0 {
		cfg.LeaseExpiry = DefaultLeaseExpiry
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	c := &Coordinator{
		cfg:    cfg,
		job:    job,
		store:  NewStore(),
		prog:   telemetry.NewProgress(len(units)),
		now:    cfg.Now,
		leases: make(map[string]int),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if cfg.LeaseSeed != 0 {
		c.rng = rand.New(rand.NewSource(int64(cfg.LeaseSeed)))
	}
	expCfg := job.ExpConfig("")
	for _, u := range units {
		c.chunks = append(c.chunks, &chunk{unit: u, names: expCfg.ArtifactNames(u.Key)})
	}
	return c, nil
}

// Progress exposes the aggregated sweep progress (chunks done,
// simulated cycles credited by worker heartbeats and completions) that
// /progress serves; telemetry's ProgressSnapshot is the shared schema
// with the single-process status server.
func (c *Coordinator) Progress() *telemetry.Progress { return c.prog }

// Store exposes the artifact store (tests and sweepd's summary line).
func (c *Coordinator) Store() *Store { return c.store }

// Done reports whether every chunk completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return c.done == len(c.chunks)
}

// Err returns the job failure, if any (retry budget exhausted).
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return c.failed
}

// Wait blocks until the job completes, fails, or ctx ends. Its polling
// also drives lease expiry while every worker is busy or dead.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		c.expireLocked()
		done, failed := c.done == len(c.chunks), c.failed
		c.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// expireLocked returns timed-out leases to the queue. A chunk that has
// exhausted its retry budget fails the whole job: something is
// systematically killing its workers, and silent infinite retry would
// hide it. Called under c.mu from every entry point.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for i, ch := range c.chunks {
		if ch.state != chunkLeased || now.Before(ch.expiry) {
			continue
		}
		delete(c.leases, ch.lease)
		ch.lease = ""
		ch.worker = ""
		ch.state = chunkPending
		c.expired++
		if ch.attempts >= c.cfg.RetryBudget && c.failed == nil {
			c.failed = fmt.Errorf("fabric: chunk %d (%s) exhausted its retry budget (%d leases)",
				i, ch.unit.Key, ch.attempts)
		}
	}
}

// pickPendingLocked selects the next chunk to lease: lowest index, or
// a seeded random pending chunk when LeaseSeed scrambles the order.
func (c *Coordinator) pickPendingLocked() int {
	var pending []int
	for i, ch := range c.chunks {
		if ch.state == chunkPending {
			if c.rng == nil {
				return i
			}
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return -1
	}
	return pending[c.rng.Intn(len(pending))]
}

// Handler returns the coordinator's HTTP endpoint map.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "fqms sweep coordinator\n\n"+
			"/job          GET: the job spec every chunk shares\n"+
			"/lease        POST {worker}: lease the next chunk\n"+
			"/heartbeat    POST ?lease=&cycle=, body = raw snapshot: renew + replace the chunk's checkpoint\n"+
			"/complete     POST {lease,cycle,artifacts}: finish a chunk\n"+
			"/blob/<hash>  GET: fetch an artifact blob or a chunk's live checkpoint\n"+
			"/progress     GET: aggregated sweep progress\n"+
			"/status       GET: per-chunk queue state\n"+
			"/metrics      GET: coordinator queue gauges, Prometheus text\n")
	})
	mux.HandleFunc("/job", c.handleJob)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/complete", c.handleComplete)
	mux.HandleFunc("/blob/", c.handleBlob)
	mux.HandleFunc("/progress", c.handleProgress)
	mux.HandleFunc("/status", c.handleStatus)
	mux.HandleFunc("/metrics", c.handleMetrics)
	return mux
}

// decodeBody reads a bounded JSON body into v, rejecting trailing
// garbage. Every decode error surfaces as a clean 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(v); err != nil {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "bad request body: " + err.Error()})
		return false
	}
	if dec.More() {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "trailing data after JSON body"})
		return false
	}
	return true
}

// readBody reads a raw request body whole, at most maxRequestBody bytes,
// into a buffer sized from Content-Length up front — one copy off the
// wire, which the caller then owns. Too large or cut short is a clean
// 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > maxRequestBody {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "request body too large"})
		return nil, false
	}
	// bytes.MinRead of slack lets ReadFrom see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "bad request body: " + err.Error()})
		return nil, false
	}
	return buf.Bytes(), true
}

func writeStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeStatus(w, http.StatusMethodNotAllowed, statusReply{Status: "error", Error: "POST only"})
		return false
	}
	return true
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeStatus(w, http.StatusOK, c.job)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	if c.failed != nil {
		writeStatus(w, http.StatusOK, leaseResponse{Status: statusFailed, Error: c.failed.Error()})
		return
	}
	if c.done == len(c.chunks) {
		writeStatus(w, http.StatusOK, leaseResponse{Status: statusDone})
		return
	}
	i := c.pickPendingLocked()
	if i < 0 {
		writeStatus(w, http.StatusOK, leaseResponse{Status: statusWait})
		return
	}
	ch := c.chunks[i]
	c.leaseSeq++
	ch.lease = fmt.Sprintf("l%d", c.leaseSeq)
	ch.worker = req.Worker
	ch.state = chunkLeased
	ch.attempts++
	ch.expiry = c.now().Add(c.cfg.LeaseExpiry)
	ch.resumedFrom = ch.ckptCycle
	c.leases[ch.lease] = i
	c.prog.Start(ch.unit.Key)
	writeStatus(w, http.StatusOK, leaseResponse{
		Status:          statusLease,
		Chunk:           i,
		Attempt:         ch.attempts,
		Lease:           ch.lease,
		Unit:            ch.unit,
		Checkpoint:      ch.ckptHash,
		CheckpointCycle: ch.ckptCycle,
	})
}

// resolveLease maps a lease token to its chunk, under c.mu. A missing
// token means the lease expired (and was possibly reassigned) or never
// existed — either way the worker must abandon the chunk, so both get
// the same 409.
func (c *Coordinator) resolveLeaseLocked(token string) (*chunk, bool) {
	i, ok := c.leases[token]
	if !ok {
		return nil, false
	}
	return c.chunks[i], true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	q := r.URL.Query()
	cycle, err := strconv.ParseInt(q.Get("cycle"), 10, 64)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "bad cycle: " + err.Error()})
		return
	}
	ckpt, ok := readBody(w, r)
	if !ok {
		return
	}
	var hash string
	if len(ckpt) > 0 {
		hash = blobHash(ckpt) // outside the lock: it is the one slow step
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	ch, ok := c.resolveLeaseLocked(q.Get("lease"))
	if !ok {
		writeStatus(w, http.StatusConflict, statusReply{Status: "expired", Error: "unknown or expired lease"})
		return
	}
	if cycle < 0 || cycle > c.job.TotalCycles() {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: "cycle out of range"})
		return
	}
	ch.expiry = c.now().Add(c.cfg.LeaseExpiry)
	if len(ckpt) > 0 {
		ch.ckpt, ch.ckptHash, ch.ckptCycle = ckpt, hash, cycle
	}
	c.creditLocked(ch, cycle)
	writeStatus(w, http.StatusOK, statusReply{Status: statusOK})
}

// creditLocked advances the chunk's progress high-water mark; cycles
// are credited once however many times a region is re-led after
// restores.
func (c *Coordinator) creditLocked(ch *chunk, cycle int64) {
	if cycle > ch.credited {
		c.prog.AddCycles(cycle - ch.credited)
		ch.credited = cycle
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	ch, ok := c.resolveLeaseLocked(req.Lease)
	if !ok {
		// Duplicate, late, or replayed completion: the chunk is done
		// (or re-leased elsewhere); nothing may be overwritten or
		// reassigned on its account.
		writeStatus(w, http.StatusConflict, statusReply{Status: "expired", Error: "unknown or expired lease"})
		return
	}
	// The names become file names in WriteMerged: accept exactly the
	// set the job defines, so unknown, duplicate, missing and
	// path-bearing names all fail here with the lease left live.
	if err := checkArtifacts(req.Artifacts, ch.names); err != nil {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: err.Error()})
		return
	}
	if _, _, err := exp.DecodeArtifacts(req.Artifacts); err != nil {
		writeStatus(w, http.StatusBadRequest, statusReply{Status: "error", Error: err.Error()})
		return
	}
	ch.blobs = make([]string, len(req.Artifacts))
	for i, a := range req.Artifacts {
		ch.blobs[i] = c.store.Put(a.Data)
	}
	delete(c.leases, req.Lease)
	ch.lease = ""
	ch.ckpt, ch.ckptHash = nil, "" // nothing resumes a done chunk
	ch.state = chunkDone
	c.done++
	c.creditLocked(ch, c.job.TotalCycles())
	c.prog.Finish(ch.unit.Key)
	writeStatus(w, http.StatusOK, statusReply{Status: statusOK})
}

// checkArtifacts holds an uploaded set to the expected names, in order,
// each with content.
func checkArtifacts(set []exp.Artifact, names []string) error {
	if len(set) != len(names) {
		return fmt.Errorf("completion carries %d artifacts, the job defines %d", len(set), len(names))
	}
	for i, a := range set {
		if a.Name != names[i] {
			return fmt.Errorf("completion artifact %d is named %q, the job defines %q", i, a.Name, names[i])
		}
		if len(a.Data) == 0 {
			return fmt.Errorf("completion artifact %s is empty", a.Name)
		}
	}
	return nil
}

// handleBlob serves an artifact blob from the store or, failing that, a
// chunk's live checkpoint. A checkpoint that was superseded or whose
// chunk completed is gone: 404, which tells a worker resuming from it
// that its lease is gone too.
func (c *Coordinator) handleBlob(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/blob/")
	b, ok := c.store.Get(hash)
	if !ok {
		b, ok = c.checkpoint(hash)
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b)
}

// checkpoint returns the live checkpoint stored under hash, if a chunk
// holds one.
func (c *Coordinator) checkpoint(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.chunks {
		if ch.ckpt != nil && ch.ckptHash == hash {
			return ch.ckpt, true
		}
	}
	return nil, false
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked()
	c.mu.Unlock()
	writeStatus(w, http.StatusOK, c.prog.Snapshot())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeStatus(w, http.StatusOK, c.Status())
}

// handleMetrics exposes the coordinator's own health as a Prometheus
// scrape — the queue by state, worker liveness, retry-budget
// consumption, and the artifact store — through the same exposition
// writer the simulation status server uses.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked()
	snap := metrics.Snapshot{
		Counters: map[string]int64{
			"sweepd.leases.granted": int64(c.leaseSeq),
			"sweepd.leases.expired": c.expired,
		},
		Gauges: map[string]int64{
			"sweepd.chunks.total":   int64(len(c.chunks)),
			"sweepd.retry.budget":   int64(c.cfg.RetryBudget),
			"sweepd.workers.active": 0,
			"sweepd.job.failed":     0,
		},
	}
	workers := make(map[string]bool)
	var pending, leased, done, attempts, maxAttempts int64
	for _, ch := range c.chunks {
		switch ch.state {
		case chunkPending:
			pending++
		case chunkLeased:
			leased++
			workers[ch.worker] = true
		case chunkDone:
			done++
		}
		attempts += int64(ch.attempts)
		if int64(ch.attempts) > maxAttempts {
			maxAttempts = int64(ch.attempts)
		}
	}
	snap.Gauges["sweepd.chunks.pending"] = pending
	snap.Gauges["sweepd.chunks.leased"] = leased
	snap.Gauges["sweepd.chunks.done"] = done
	snap.Gauges["sweepd.workers.active"] = int64(len(workers))
	snap.Gauges["sweepd.attempts.max"] = maxAttempts
	snap.Counters["sweepd.attempts"] = attempts
	if c.failed != nil {
		snap.Gauges["sweepd.job.failed"] = 1
	}
	blobs, bytes, dedup := c.store.Stats()
	snap.Gauges["sweepd.store.blobs"] = int64(blobs)
	snap.Gauges["sweepd.store.bytes"] = bytes
	snap.Counters["sweepd.store.dedup"] = dedup
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, snap)
}

// Status snapshots the queue.
func (c *Coordinator) Status() StatusReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	rep := StatusReport{Total: len(c.chunks)}
	if c.failed != nil {
		rep.Failed = c.failed.Error()
	}
	rep.StoreBlobs, rep.StoreBytes, rep.StoreDedup = c.store.Stats()
	for i, ch := range c.chunks {
		switch ch.state {
		case chunkPending:
			rep.Pending++
		case chunkLeased:
			rep.Leased++
		case chunkDone:
			rep.Done++
		}
		rep.Chunks = append(rep.Chunks, ChunkStatus{
			Chunk:           i,
			Key:             ch.unit.Key,
			State:           ch.state.String(),
			Worker:          ch.worker,
			Attempts:        ch.attempts,
			CheckpointCycle: ch.ckptCycle,
			ResumedFrom:     ch.resumedFrom,
		})
	}
	return rep
}

// sets rebuilds the completed job's artifact sets from the store, one
// per chunk in chunk order.
func (c *Coordinator) sets() ([][]exp.Artifact, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != len(c.chunks) {
		return nil, fmt.Errorf("fabric: job incomplete (%d/%d chunks)", c.done, len(c.chunks))
	}
	sets := make([][]exp.Artifact, len(c.chunks))
	for i, ch := range c.chunks {
		for j, hash := range ch.blobs {
			b, ok := c.store.Get(hash)
			if !ok {
				return nil, fmt.Errorf("fabric: chunk %s lost its %s blob", ch.unit.Key, ch.names[j])
			}
			sets[i] = append(sets[i], exp.Artifact{Name: ch.names[j], Data: b})
		}
	}
	return sets, nil
}

// Arena reduces the completed job's uploaded artifact sets into the
// same ArenaResult a single-process sweep computes — identical float
// arithmetic via exp.ReduceArena, so identical rows.
func (c *Coordinator) Arena() (exp.ArenaResult, error) {
	sets, err := c.sets()
	if err != nil {
		return exp.ArenaResult{}, err
	}
	return c.reduce(sets)
}

// reduce folds the per-chunk sets (as sets returned them) into the
// arena table.
func (c *Coordinator) reduce(sets [][]exp.Artifact) (exp.ArenaResult, error) {
	type run struct {
		res  sim.Result
		intf *exp.InterferenceDoc
	}
	runs := make(map[string]run, len(sets))
	for i, set := range sets {
		key := c.chunks[i].unit.Key
		res, doc, err := exp.DecodeArtifacts(set)
		if err != nil {
			return exp.ArenaResult{}, fmt.Errorf("fabric: chunk %s: %w", key, err)
		}
		runs[key] = run{res, doc}
	}
	var intf exp.InterferenceGetter
	if c.job.Interference {
		intf = func(u exp.Unit) (int64, int64, bool) { return runs[u.Key].intf.Counts() }
	}
	return exp.ReduceArena(c.job.Spec, func(u exp.Unit) (sim.Result, error) {
		r, ok := runs[u.Key]
		if !ok {
			return sim.Result{}, fmt.Errorf("fabric: no result for unit %s", u.Key)
		}
		return r.res, nil
	}, intf)
}

// WriteMerged materializes the completed job into dir: every chunk's
// artifact set verbatim as uploaded, then arena.csv and arena.json from
// the deterministic reduction — the same file set, names, and bytes a
// single-process sweep with exp.Config.Dir pointed there leaves behind.
func (c *Coordinator) WriteMerged(dir string) error {
	sets, err := c.sets()
	if err != nil {
		return err
	}
	arena, err := c.reduce(sets)
	if err != nil {
		return err
	}
	sweep, err := arena.Artifacts()
	if err != nil {
		return err
	}
	var all []exp.Artifact
	for _, set := range sets {
		all = append(all, set...)
	}
	return exp.WriteArtifacts(dir, append(all, sweep...))
}

// checkInvariants audits the queue's concurrency contract; the fuzz
// and race tests call it after every hostile request. It must hold at
// every instant the mutex is free:
//
//   - chunk states partition the queue and agree with the done count;
//   - every live lease token maps to exactly one leased chunk and
//     every leased chunk holds exactly one live token;
//   - a done chunk has its whole artifact set, every blob of it in
//     the store, no lease and no checkpoint — once done it can never be
//     leased (assigned) again;
//   - a chunk that is not done holds at most its one newest checkpoint,
//     under the address its bytes hash to, and the store holds the done
//     chunks' artifact blobs and nothing else;
//   - attempts never exceed the retry budget without failing the job.
func (c *Coordinator) checkInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := 0
	leased := make(map[string]int)
	stored := make(map[string]bool) // distinct artifact blobs of done chunks
	for i, ch := range c.chunks {
		if (ch.ckpt != nil || ch.ckptHash != "") && blobHash(ch.ckpt) != ch.ckptHash {
			return fmt.Errorf("chunk %d checkpoint (%d bytes) does not hash to its address %q", i, len(ch.ckpt), ch.ckptHash)
		}
		switch ch.state {
		case chunkDone:
			done++
			if ch.lease != "" {
				return fmt.Errorf("chunk %d done but holds lease %s", i, ch.lease)
			}
			if len(ch.blobs) != len(ch.names) {
				return fmt.Errorf("chunk %d done with %d of %d artifacts", i, len(ch.blobs), len(ch.names))
			}
			if ch.ckpt != nil {
				return fmt.Errorf("chunk %d done but still holds a %d-byte checkpoint", i, len(ch.ckpt))
			}
			for j, hash := range ch.blobs {
				if _, ok := c.store.Get(hash); !ok {
					return fmt.Errorf("chunk %d done but its %s blob is not in the store", i, ch.names[j])
				}
				stored[hash] = true
			}
		case chunkLeased:
			if ch.lease == "" {
				return fmt.Errorf("chunk %d leased without a token", i)
			}
			if prev, dup := leased[ch.lease]; dup {
				return fmt.Errorf("lease %s held by chunks %d and %d", ch.lease, prev, i)
			}
			leased[ch.lease] = i
			if j, ok := c.leases[ch.lease]; !ok || j != i {
				return fmt.Errorf("chunk %d lease %s not in the lease table", i, ch.lease)
			}
		case chunkPending:
			if ch.lease != "" {
				return fmt.Errorf("chunk %d pending but holds lease %s", i, ch.lease)
			}
		default:
			return fmt.Errorf("chunk %d in unknown state %d", i, ch.state)
		}
		if ch.attempts > c.cfg.RetryBudget {
			return fmt.Errorf("chunk %d has %d attempts, budget %d", i, ch.attempts, c.cfg.RetryBudget)
		}
	}
	if done != c.done {
		return fmt.Errorf("done count %d disagrees with chunk states (%d)", c.done, done)
	}
	if len(leased) != len(c.leases) {
		return fmt.Errorf("lease table has %d entries, chunks hold %d", len(c.leases), len(leased))
	}
	if blobs, _, _ := c.store.Stats(); blobs != len(stored) {
		return fmt.Errorf("store holds %d blobs, done chunks name %d", blobs, len(stored))
	}
	return nil
}

// Serve binds addr synchronously and serves the coordinator's handler
// until the returned server's Shutdown.
func (c *Coordinator) Serve(addr string) (*telemetry.Server, error) {
	return telemetry.Serve(addr, c.Handler())
}
