package sim

import (
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// The adversarial isolation property suite. For every antagonist
// profile, a latency-sensitive victim (vpr) shares the memory system
// with the attacker under equal φ-shares. The paper's §5 bound says a
// thread that stays within its share is isolated: under FQ-VFTF its
// slowdown relative to the private-φ system (the same victim alone on
// memory scaled to its share, dram Scale(2)) must not exceed 1. The
// same mix under FR-FCFS must degrade by at least a pinned factor —
// otherwise the antagonist is not actually antagonistic and the
// property is vacuous — and BLISS must land strictly between the two.
// PR 9's interference cube closes the loop: the stolen cycles must be
// attributed to the attacker, for the causes the attack targets.

const (
	isoWarmup = 20_000
	isoWindow = 120_000
)

// isoDrift pins, per attacker, the minimum FR-FCFS vs FQ-VFTF slowdown
// ratio. Measured drifts are {rowthrash 1.53, bankhammer 2.65, bushog
// 1.86, stream 2.47, diurnal 2.28}; the pins leave headroom for timing
// refinements while still failing if isolation quietly erodes.
var isoDrift = map[string]float64{
	"rowthrash":  1.3,
	"bankhammer": 2.0,
	"bushog":     1.5,
	"stream":     2.0,
	"diurnal":    1.8,
}

// privateBaselineIPC runs the victim alone on the private-φ memory
// system (half-speed DRAM = its 1/2 share of the shared system), once,
// shared across all isolation subtests.
var privateBaselineIPC = sync.OnceValue(func() float64 {
	vpr, err := trace.ByName("vpr")
	if err != nil {
		panic(err)
	}
	cfg := Config{Workload: []trace.Profile{vpr}}
	cfg.Mem.DRAM = dram.DefaultConfig()
	cfg.Mem.DRAM.Timing = dram.DDR2800().Scale(2)
	res, err := Run(cfg, isoWarmup, isoWindow)
	if err != nil {
		panic(err)
	}
	return res.Threads[0].IPC
})

// isoRun simulates victim+attacker under the named policy with
// attribution on and returns the victim slowdown vs the private-φ
// baseline plus the interference snapshot.
func isoRun(t *testing.T, attacker, policy string) (float64, memctrl.InterferenceSnapshot) {
	t.Helper()
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := trace.ByName(attacker)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := PolicyByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:     []trace.Profile{vpr, atk},
		Policy:       pol,
		Interference: true,
	}
	s, res, err := RunSystem(cfg, isoWarmup, isoWindow)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := s.Interference()
	if !ok {
		t.Fatal("interference attribution not enabled")
	}
	if res.Threads[0].IPC <= 0 {
		t.Fatalf("victim IPC %.4f under %s vs %s", res.Threads[0].IPC, policy, attacker)
	}
	return privateBaselineIPC() / res.Threads[0].IPC, snap
}

func causeIndex(t *testing.T, name string) int {
	t.Helper()
	for i, c := range memctrl.InterferenceCauses() {
		if c == name {
			return i
		}
	}
	t.Fatalf("no interference cause %q", name)
	return -1
}

func sum(row []int64) int64 {
	var s int64
	for _, v := range row {
		s += v
	}
	return s
}

// TestIsolationBound is the headline property: per antagonist, FQ-VFTF
// holds the victim at or under its private-φ performance while FR-FCFS
// hands the attacker a pinned slowdown factor and BLISS sits between.
func TestIsolationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation sweep is slow")
	}
	t.Parallel() // measures no allocation, so it may share the host
	for _, attacker := range trace.AntagonistNames() {
		attacker := attacker
		t.Run(attacker, func(t *testing.T) {
			t.Parallel()
			sdFQ, _ := isoRun(t, attacker, "FQ-VFTF")
			sdFR, _ := isoRun(t, attacker, "FR-FCFS")
			sdBL, _ := isoRun(t, attacker, "BLISS")

			// The §5 bound: a within-share victim never runs slower than
			// its private-φ system. (Measured FQ slowdowns are 0.72–0.85:
			// the shared system's excess capacity is a bonus, the bound
			// is the contract.)
			if sdFQ > 1.0 {
				t.Errorf("FQ-VFTF victim slowdown %.3f exceeds the private-φ bound 1.0", sdFQ)
			}
			// FR-FCFS must actually be hurt by the attack, by the pinned
			// drift factor relative to FQ-VFTF.
			drift := sdFR / sdFQ
			if min := isoDrift[attacker]; drift < min {
				t.Errorf("FR-FCFS/FQ-VFTF slowdown drift %.2f below pinned %.2f (FR %.3f, FQ %.3f): the antagonist is not antagonistic",
					drift, min, sdFR, sdFQ)
			}
			// BLISS mitigates relative to FR-FCFS but does not reach the
			// fair-queuing bound.
			if sdBL >= sdFR {
				t.Errorf("BLISS slowdown %.3f not better than FR-FCFS %.3f", sdBL, sdFR)
			}
		})
	}
}

// TestIsolationAttribution closes the loop with the interference cube:
// under FR-FCFS the victim's stolen cycles must be charged to the
// attacker — more than to itself, more than to the no-aggressor
// bucket, and several times what FQ-VFTF lets the attacker steal — and
// the cause breakdown must match each attack's mechanism.
func TestIsolationAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation sweep is slow")
	}
	t.Parallel() // measures no allocation, so it may share the host
	bankOther := causeIndex(t, "bank_other")
	bus := causeIndex(t, "bus")
	for _, attacker := range trace.AntagonistNames() {
		attacker := attacker
		t.Run(attacker, func(t *testing.T) {
			t.Parallel()
			_, fq := isoRun(t, attacker, "FQ-VFTF")
			_, fr := isoRun(t, attacker, "FR-FCFS")

			const victim, agg, none = 0, 1, 2
			stolen := fr.Matrix[victim][agg]
			if stolen <= fr.Matrix[victim][victim] {
				t.Errorf("FR-FCFS charged the victim to itself (%d) more than to the attacker (%d)",
					fr.Matrix[victim][victim], stolen)
			}
			if stolen <= fr.Matrix[victim][none] {
				t.Errorf("FR-FCFS charged no-aggressor (%d) more than the attacker (%d)",
					fr.Matrix[victim][none], stolen)
			}
			// FQ-VFTF caps what the attacker can steal; measured ratios
			// are 4.3x–14x, pinned at 3x.
			if fqStolen := fq.Matrix[victim][agg]; stolen < 3*fqStolen {
				t.Errorf("FR-FCFS attacker-attributed cycles %d not >= 3x FQ-VFTF's %d", stolen, fqStolen)
			}
			// Cause shape: every antagonist works through bank conflicts
			// and bus occupancy (measured together >= 82%% of the cell).
			cell := fr.Cube[victim][agg]
			if total := sum(cell); total > 0 {
				if share := float64(cell[bankOther]+cell[bus]) / float64(total); share < 0.70 {
					t.Errorf("bank_other+bus are %.0f%% of the attacker's cell, want >= 70%% (cube %v, causes %v)",
						100*share, cell, fr.Causes)
				}
			} else {
				t.Error("empty attacker attribution cell under FR-FCFS")
			}
			if attacker == "bankhammer" {
				// The bank attack specifically: conflicts on the victim's
				// banks dominate (measured 89%).
				if share := float64(cell[bankOther]) / float64(sum(cell)); share < 0.60 {
					t.Errorf("bankhammer bank_other share %.0f%%, want >= 60%%", 100*share)
				}
			}
		})
	}
}
