package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

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
