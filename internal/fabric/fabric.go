// Package fabric shards a sweep across workers: a coordinator serves
// an HTTP/JSON work queue of simulation chunks (one per arena unit —
// policy x workload x share x channels cell, plus the shared solo
// baselines), workers lease chunks, step them in checkpoint-bounded
// epochs through the exp runner, heartbeat progress with each epoch's
// checkpoint attached, and upload the finished run's artifact set
// (exp.Artifact, carried opaquely) into the coordinator's
// content-addressed store. A chunk holds one checkpoint, its newest,
// until it completes. A lease that stops heartbeating expires and
// its chunk is reassigned — resuming from the last uploaded checkpoint,
// not from scratch — within a bounded retry budget. When every chunk
// completes, the coordinator merges the per-chunk artifacts into
// exactly the files a single-process sweep emits: the per-run
// artifacts verbatim, and arena.csv / arena.json recomputed through
// exp.ReduceArena over the uploaded results.
//
// Determinism argument: a chunk is a pure function of (JobSpec, Unit) —
// exp.Unit carries only names and scalars, the simulator is
// deterministic, and checkpoint/restore is bit-identical (PR 5's
// equivalence suite) — so whichever worker runs a chunk, however many
// times its lease bounces, the uploaded artifacts are the bytes a
// monolithic sweep writes. The merge step adds nothing of its own: it
// copies those bytes and re-runs the same float reduction the serial
// path uses. The fabric test battery pins this end to end, including
// through a kill -9'd worker.
package fabric

import (
	"repro/internal/exp"
)

// JobSpec describes one sharded sweep: the arena matrix plus the run
// configuration every chunk shares. It travels to workers over GET
// /job, so the coordinator is the single source of truth for what a
// chunk means.
type JobSpec struct {
	// Spec is the arena matrix to shard.
	Spec exp.ArenaSpec `json:"spec"`

	// Warmup and Window are the per-run warmup and measurement cycles
	// (zero selects exp.DefaultConfig's values).
	Warmup int64 `json:"warmup"`
	Window int64 `json:"window"`

	// Seed perturbs the trace generators.
	Seed uint64 `json:"seed"`

	// SampleInterval > 0 makes every chunk's artifact set carry its
	// time series alongside its result.
	SampleInterval int64 `json:"sample_interval"`

	// Interference runs every chunk with delay attribution on: each
	// chunk's artifact set carries its interference matrix and the
	// merged arena an interference_index column. Simulated results are
	// bit-identical either way.
	Interference bool `json:"interference,omitempty"`

	// CheckpointEvery is the chunk epoch in cycles: workers checkpoint,
	// upload, and heartbeat every such interval (zero selects
	// exp.DefaultCheckpointEvery). The lease expiry must comfortably
	// exceed the wall-clock cost of one epoch.
	CheckpointEvery int64 `json:"checkpoint_every"`
}

// withDefaults fills zero fields like the exp runner would.
func (j JobSpec) withDefaults() JobSpec {
	def := exp.DefaultConfig()
	if j.Warmup <= 0 {
		j.Warmup = def.Warmup
	}
	if j.Window <= 0 {
		j.Window = def.Window
	}
	if j.CheckpointEvery <= 0 {
		j.CheckpointEvery = exp.DefaultCheckpointEvery
	}
	return j
}

// ExpConfig is the runner configuration a single process executing
// this job's runs uses, with every artifact rooted at dir. The serial
// reference sweep and each worker's chunk execution both build their
// runner from here, which is what makes their artifact bytes
// comparable in the first place; the coordinator reads the artifact
// names a completion must carry off the same value.
func (j JobSpec) ExpConfig(dir string) exp.Config {
	j = j.withDefaults()
	return exp.Config{
		Warmup:          j.Warmup,
		Window:          j.Window,
		Seed:            j.Seed,
		SampleInterval:  j.SampleInterval,
		Interference:    j.Interference,
		Dir:             dir,
		CheckpointEvery: j.CheckpointEvery,
	}
}

// TotalCycles is one chunk's full simulation length.
func (j JobSpec) TotalCycles() int64 {
	j = j.withDefaults()
	return j.Warmup + j.Window
}

// Wire protocol bodies. /lease, /complete and /job are JSON — small
// bodies, an artifact's bytes riding as base64. A heartbeat is not: POST
// /heartbeat?lease=<token>&cycle=<n> carries the snapshot verbatim as
// its application/octet-stream body (empty = renew only), so a
// checkpoint crosses the wire and lands in the coordinator as the bytes
// the encoder wrote, copied once.

// leaseRequest asks for a chunk to work on.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// Lease statuses.
const (
	statusLease  = "lease"  // a chunk is attached; go run it
	statusWait   = "wait"   // nothing leasable now, poll again
	statusDone   = "done"   // every chunk is complete; exit
	statusFailed = "failed" // the job failed (retry budget exhausted)
	statusOK     = "ok"     // heartbeat/completion accepted
)

// leaseResponse grants (or declines) a chunk.
type leaseResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Chunk   int      `json:"chunk"`
	Attempt int      `json:"attempt,omitempty"`
	Lease   string   `json:"lease,omitempty"`
	Unit    exp.Unit `json:"unit"`

	// Checkpoint names the blob (GET /blob/<hash>) of the chunk's last
	// uploaded checkpoint; empty means start from scratch.
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointCycle int64  `json:"checkpoint_cycle,omitempty"`
}

// completeRequest delivers a finished chunk's artifact set: exactly the
// names exp.Config.ArtifactNames lists for the chunk's unit, in order.
type completeRequest struct {
	Lease     string         `json:"lease"`
	Cycle     int64          `json:"cycle"`
	Artifacts []exp.Artifact `json:"artifacts"`
}

// statusReply is the ack for heartbeats and completions.
type statusReply struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// ChunkStatus is one chunk's row in GET /status.
type ChunkStatus struct {
	Chunk    int    `json:"chunk"`
	Key      string `json:"key"`
	State    string `json:"state"` // "pending", "leased", "done"
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`

	// CheckpointCycle is the cycle of the last uploaded checkpoint;
	// ResumedFrom is the cycle the current/last attempt restored from
	// (0 = started from scratch).
	CheckpointCycle int64 `json:"checkpoint_cycle,omitempty"`
	ResumedFrom     int64 `json:"resumed_from,omitempty"`
}

// StatusReport is GET /status: the queue at a glance.
type StatusReport struct {
	Total   int    `json:"total"`
	Pending int    `json:"pending"`
	Leased  int    `json:"leased"`
	Done    int    `json:"done"`
	Failed  string `json:"failed,omitempty"`

	StoreBlobs int   `json:"store_blobs"`
	StoreBytes int64 `json:"store_bytes"`
	StoreDedup int64 `json:"store_dedup"`

	Chunks []ChunkStatus `json:"chunks"`
}
