package sim

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/snapshot"
)

// maxTransitQueue caps decoded transit-queue lengths. Real queues hold
// at most a few dozen entries (bounded by MSHR and write-buffer
// capacity); the cap only guards hostile snapshots.
const maxTransitQueue = 1 << 16

// fingerprint visits the run a snapshot belongs to, every field
// verify-only, before any component state, so a snapshot restored under
// the wrong policy, workload, shares, seed or observers fails with a
// clear error. Each section verifies the part of the machine it owns
// (controller, channel, core, cache hierarchy). How the simulator steps
// is not recorded: fast and strict runs write the same bytes.
func (s *System) fingerprint(c *snapshot.Codec) error {
	c.Section("sim.Config")
	snapshot.Verify(c, len(s.cores), "cores", c.Int)
	for i, p := range s.cfg.Workload {
		snapshot.Verify(c, p.Name, fmt.Sprintf("core %d workload", i), c.Name)
	}
	for i, sh := range s.cfg.Shares {
		snapshot.Verify(c, sh.Num, fmt.Sprintf("core %d share numerator", i), c.Int)
		snapshot.Verify(c, sh.Den, fmt.Sprintf("core %d share denominator", i), c.Int)
	}
	snapshot.Verify(c, s.ctrl.Policy().Name(), "policy", c.Name)
	snapshot.Verify(c, s.cfg.Seed, "seed", c.U64)
	snapshot.Verify(c, s.cfg.Audit, "audit", c.Bool)
	snapshot.Verify(c, s.cfg.Interference, "interference", c.Bool)
	snapshot.Verify(c, s.cfg.SampleInterval, "sample interval", c.I64)
	snapshot.Verify(c, s.cfg.ReqTransit, "request transit", c.Int)
	snapshot.Verify(c, s.cfg.RespTransit, "response transit", c.Int)
	return c.End()
}

// timedQueueState visits the live (unconsumed) region only, so the
// serialized form is independent of the queue's internal head position
// and identical to what an uninterrupted run would hold.
func timedQueueState(c *snapshot.Codec, q *timedQueue) {
	live := q.buf[q.head:]
	snapshot.Slice(c, &live, maxTransitQueue, func(e *timedAddr) {
		c.U64(&e.addr)
		c.I64(&e.at)
	})
	if c.Loading() {
		*q = timedQueue{buf: live}
	}
}

// state visits the complete simulator state: the configuration
// fingerprint, cycle counters, the transit queues, the measurement
// baseline, every core, the memory controller, the metrics registry,
// and the epoch sampler.
func (s *System) state(c *snapshot.Codec) error {
	if err := s.fingerprint(c); err != nil {
		return err
	}
	c.Section("sim.System")
	c.I64(&s.cycle)
	for i := range s.cores {
		timedQueueState(c, &s.fetchQ[i])
		timedQueueState(c, &s.wbQ[i])
		timedQueueState(c, &s.respQ[i])
	}
	measuring := s.MeasurementStarted()
	c.Bool(&measuring)
	if measuring {
		if c.Loading() {
			s.snap = newBaseline(len(s.cores))
		}
		c.I64(&s.snap.cycle)
		c.I64s(s.snap.retired)
		c.I64s(s.snap.stalls)
		c.I64s(s.snap.readsDone)
		c.I64s(s.snap.readLatSum)
		c.I64s(s.snap.busCycles)
		c.I64(&s.snap.dataBusBusy)
		c.I64(&s.snap.bankBusy)
		c.I64s(s.snap.rowHits)
		c.I64s(s.snap.rowConf)
		c.I64s(s.snap.rowClosed)
	}
	for _, cpu := range s.cores {
		cpu.State(c)
	}
	s.ctrl.State(c)
	snapshot.Verify(c, s.cfg.Metrics != nil, "metrics registry", c.Bool)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.State(c)
	}
	snapshot.Verify(c, s.sampler != nil, "epoch sampling", c.Bool)
	if s.sampler != nil {
		s.sampler.State(c)
		s.epochNext = s.sampler.NextSampleAt()
	}
	return c.End()
}

// MeasurementStarted reports whether BeginMeasurement has been called —
// i.e. whether this system is inside its measurement window. A restored
// system resumes on the same side of the boundary as the original.
func (s *System) MeasurementStarted() bool { return s.snap.retired != nil }

// Checkpoint serializes the complete simulator state to w: cycle
// counters, every core (ROB, LSQ, MSHRs, caches, trace cursor), the
// transit queues, the memory controller (queues, DRAM timing, policy
// virtual clocks, auditor, attribution), the metrics registry, and the
// epoch sampler. The format is versioned and self-describing; Restore
// with the same Config, in either stepping mode, resumes bit-identically
// — cycle-for-cycle and byte-for-byte in every artifact — with an
// uninterrupted run.
//
// Systems with a streaming trace sink (Config.Trace) refuse to
// checkpoint: the events already written cannot be replayed into the
// resumed process's sink, so a resumed timeline would be silently
// truncated.
func (s *System) Checkpoint(w io.Writer) error {
	if s.cfg.Trace != nil {
		return fmt.Errorf("sim: cannot checkpoint with a streaming trace sink attached")
	}
	c := snapshot.NewEncoder(w)
	s.state(c)
	return c.Flush()
}

// Restore constructs a fresh system from cfg and loads a snapshot
// written by Checkpoint into it. The snapshot's configuration
// fingerprint must match cfg; component geometry is additionally
// verified section by section. Components decode in place, so on any
// error the half-loaded system is dropped and nil is returned.
//
// Restore never panics on hostile or corrupted input: all lengths are
// capped before allocation, all indices are validated before use, and a
// recover backstop converts anything residual into an error.
func Restore(cfg Config, rd io.Reader) (s *System, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: restore: corrupt snapshot: %v", p)
		}
		if err != nil {
			s = nil
		}
	}()
	if s, err = New(cfg); err != nil {
		return nil, err
	}
	c, err := snapshot.NewDecoder(rd)
	if err == nil {
		err = s.state(c)
	}
	return s, err
}

// CheckpointFile writes a checkpoint atomically: to a temporary file in
// the same directory, then renamed over path, so a crash mid-write never
// leaves a truncated snapshot where a resumable one is expected.
func (s *System) CheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := s.Checkpoint(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RestoreFile restores a system from a checkpoint file written by
// CheckpointFile.
func RestoreFile(cfg Config, path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(cfg, f)
}
