package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// TestInterferenceObservationOnly is the tentpole's safety contract:
// enabling delay attribution must not change a single simulated
// outcome, and the cube it reports must not depend on how the run was
// stepped. For every scheduler, at the default refresh interval on two
// channels and at tREF 7,000 on one, the Result with attribution on must
// equal the run with it off, and the fast path must equal the per-cycle
// oracle in the final checkpoint bytes with attribution off and on, the
// cube among them. Every run carries the invariant auditor, so the
// attribution conservation check (charged cycles == queueing delay, at
// every CAS issue) rides along for free.
func TestInterferenceObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	type policy struct {
		name    string
		factory PolicyFactory
	}
	var policies []policy
	for _, name := range PolicyNames() {
		f, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, policy{name, f})
	}
	policies = append(policies, policy{"FR-VFTF-arrival", func(s []core.Share, n int, tt dram.Timing) core.Policy {
		return core.NewFRVFTFArrival(s, n, tt)
	}})
	machines := []struct {
		name           string
		channels, tref int
	}{
		{"2ch", 2, 0},
		{"1ch/tREF7000", 1, 7_000},
	}
	const warmup, window = 20_000, 80_000
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, m := range machines {
				run := func(strict, intf bool) runState {
					cfg := Config{
						Workload:     []trace.Profile{art, vpr},
						Policy:       p.factory,
						Seed:         13,
						Strict:       strict,
						Audit:        true,
						Interference: intf,
					}
					cfg.Mem.Channels = m.channels
					if m.tref > 0 {
						cfg.Mem.DRAM = dram.DefaultConfig()
						cfg.Mem.DRAM.Timing.TREF = m.tref
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.Step(warmup)
					s.BeginMeasurement()
					s.Step(window)
					s.FinishAudit()
					if cube, ok := s.Interference(); ok && cube.Total <= 0 {
						t.Errorf("%s/strict=%v: a contended 2-thread run attributed no wait cycles", m.name, strict)
					}
					return captureRun(t, s)
				}
				fastOff, fastOn := run(false, false), run(false, true)
				if !reflect.DeepEqual(fastOff.Result, fastOn.Result) {
					t.Errorf("%s: attribution changed the Result:\n off: %+v\n on:  %+v", m.name, fastOff.Result, fastOn.Result)
				}
				compareRuns(t, "interference-off-"+sanitize(p.name+m.name), fastOff, run(true, false))
				compareRuns(t, "interference-on-"+sanitize(p.name+m.name), fastOn, run(true, true))
			}
		})
	}
}

// TestInterferenceCheckpointRestore runs the checkpoint/restore
// contract with attribution on: an interrupted run must rejoin the
// uninterrupted one on every observable, including the final
// checkpoint bytes (which now carry the attribution section) and the
// measurement-window attribution matrix itself.
func TestInterferenceCheckpointRestore(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           29,
		Audit:          true,
		Interference:   true,
		SampleInterval: 1_000,
	}
	const warmup, preCk, postCk = 2_000, 3_001, 4_999

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Step(warmup)
	ref.BeginMeasurement()
	ref.Step(preCk + postCk)
	ref.FinishAudit()
	want := captureRun(t, ref)
	wantIntf, _ := ref.Interference()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Step(warmup)
	first.BeginMeasurement()
	first.Step(preCk)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	resumed, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	resumed.Step(postCk)
	resumed.FinishAudit()
	got := captureRun(t, resumed)
	gotIntf, ok := resumed.Interference()
	if !ok {
		t.Fatal("restored system lost its attribution state")
	}
	compareRuns(t, "interference-restore", got, want)
	if !reflect.DeepEqual(gotIntf, wantIntf) {
		t.Errorf("attribution matrix diverged after restore\n got: %+v\nwant: %+v", gotIntf, wantIntf)
	}
	if wantIntf.Cross <= 0 {
		t.Error("measurement window recorded no cross-thread interference on a contended mix")
	}
}

// TestInterferenceRestoreConfigMismatch: a checkpoint taken with
// attribution on must refuse to restore into a config with it off —
// the tracker's per-slot state would silently desync mid-request.
func TestInterferenceRestoreConfigMismatch(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:     []trace.Profile{art, art},
		Policy:       FRFCFS,
		Seed:         3,
		Interference: true,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	off := cfg
	off.Interference = false
	if _, err := Restore(off, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore accepted a checkpoint whose interference setting mismatches the config")
	}
}

// TestStepZeroSteadyStateAllocsInterference holds the attribution
// layer to the controller's zero-alloc bar: the per-slot accounting
// must recycle its buffers once warm.
func TestStepZeroSteadyStateAllocsInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("serial", func(t *testing.T) {
		cfg := Config{
			Workload:     []trace.Profile{art, vpr, art, vpr},
			Policy:       FQVFTF,
			Seed:         37,
			Interference: true,
		}
		cfg.Mem.Channels = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(200_000)
		avg := testing.AllocsPerRun(10, func() {
			s.Step(5_000)
		})
		if avg != 0 {
			t.Errorf("Step allocates %.1f objects per 5k cycles with attribution on, want 0", avg)
		}
	})
}

// cubeHash digests every cell of the windowed attribution cube, in
// (victim, aggressor, cause) order.
func cubeHash(s memctrl.InterferenceSnapshot) string {
	h := sha256.New()
	var cell [8]byte
	for _, byAggr := range s.Cube {
		for _, byCause := range byAggr {
			for _, n := range byCause {
				binary.LittleEndian.PutUint64(cell[:], uint64(n))
				h.Write(cell[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInterferenceCubeGolden pins the attribution cube cell by cell.
// The charge rule (DESIGN §15) is a function of the command stream, so
// the cube is the same whichever cycles the scheduler examined, and a
// scheduler change that keeps the command stream must keep these
// hashes; a change to the rule moves them. The FR-FCFS row, with a
// refresh every 7,000 cycles, equals the cube the per-cycle oracle
// reported when attribution still sampled examined cycles. The FQ-VFTF
// row differs from that one in the policy column, where a bank held for
// one request by key: the rule charges the thread whose activate opened
// the row, not the request the bank waited for. (Waits in progress at
// the window's edges are charged at the channel's next event, which
// moved one more cell by 85 cycles.)
func TestInterferenceCubeGolden(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		workload []trace.Profile
		policy   PolicyFactory
		channels int
		tref     int
		want     string
	}{
		{"FQ-VFTF/2ch/4thr", []trace.Profile{art, vpr, art, vpr}, FQVFTF, 2, 0,
			"dee57d2239a308d1698d66bc21e6ef3e890c6433f16f9691614761ad6da04fc5"},
		{"FR-FCFS/1ch/refresh", []trace.Profile{art, vpr}, FRFCFS, 1, 7_000,
			"bd7d485868bced9105f62d99965adbcc4061fee908691730da5353eaf92e3ee1"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:     tc.workload,
				Policy:       tc.policy,
				Seed:         41,
				Audit:        true,
				Interference: true,
			}
			cfg.Mem.Channels = tc.channels
			if tc.tref > 0 {
				cfg.Mem.DRAM = dram.DefaultConfig()
				cfg.Mem.DRAM.Timing.TREF = tc.tref
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Step(20_000)
			s.BeginMeasurement()
			s.Step(80_000)
			s.FinishAudit()
			if tc.tref > 0 && s.Controller().CommandCount(dram.KindRefresh) < 10 {
				t.Fatalf("run crossed only %d refresh windows", s.Controller().CommandCount(dram.KindRefresh))
			}
			snap, _ := s.Interference()
			if got := cubeHash(snap); got != tc.want {
				t.Errorf("attribution cube moved: hash %s, want %s\ncube: %v", got, tc.want, snap.Cube)
			}
		})
	}
}
