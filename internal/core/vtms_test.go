package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
)

func TestShareBasics(t *testing.T) {
	s := EqualShare(4)
	if s != (Share{1, 4}) {
		t.Fatalf("EqualShare(4) = %v", s)
	}
	if !s.Valid() {
		t.Fatal("1/4 invalid")
	}
	if got := s.Reciprocal(); got != 4<<VTShift {
		t.Fatalf("1/4 reciprocal = %d, want %d", got, 4<<VTShift)
	}
	if s.Float() != 0.25 {
		t.Fatalf("1/4 float = %v", s.Float())
	}
	for _, bad := range []Share{{0, 1}, {1, 0}, {-1, 2}, {3, 2}} {
		if bad.Valid() {
			t.Errorf("share %v should be invalid", bad)
		}
	}
	if (Share{1, 2}).String() != "1/2" {
		t.Errorf("String = %q", (Share{1, 2}).String())
	}
}

func TestVTimeConversions(t *testing.T) {
	v := FromCycles(100)
	if v.Cycles() != 100 {
		t.Fatalf("Cycles = %d", v.Cycles())
	}
	if v.Float() != 100.0 {
		t.Fatalf("Float = %v", v.Float())
	}
}

func TestCmdKind(t *testing.T) {
	if !CmdRead.IsCAS() || !CmdWrite.IsCAS() {
		t.Error("read/write should be CAS")
	}
	if CmdActivate.IsCAS() || CmdPrecharge.IsCAS() {
		t.Error("activate/precharge are RAS commands")
	}
	for k, want := range map[CmdKind]string{
		CmdActivate: "ACT", CmdRead: "RD", CmdWrite: "WR",
		CmdPrecharge: "PRE", CmdRefresh: "REF", CmdNone: "NOP",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestFinishTimeEquation7 checks Eq. 7 by hand for a phi = 1/2 thread:
//
//	C.F = max{max{a, B.R} + B.L/phi, C.R} + C.L/phi
func TestFinishTimeEquation7(t *testing.T) {
	tt := dram.DDR2800()
	v := NewVTMS(0, Share{1, 2}, 8, tt)

	// Fresh registers, arrival at cycle 10, bank 3 closed:
	// B.L = tRCD + tCL = 10, C.L = BL/2 = 4.
	// C.F = max{max{10, 0} + 10*2, 0} + 4*2 = 30 + 8 = 38.
	got := v.FinishTime(10, 3, 0, false, BankClosed)
	if want := FromCycles(38); got != want {
		t.Fatalf("FinishTime = %v cycles, want 38", got.Float())
	}

	// A row hit only pays tCL: C.F = 10 + 5*2 + 8 = 28.
	got = v.FinishTime(10, 3, 0, false, BankHit)
	if want := FromCycles(28); got != want {
		t.Fatalf("hit FinishTime = %v cycles, want 28", got.Float())
	}

	// A conflict pays tRP + tRCD + tCL = 15: C.F = 10 + 30 + 8 = 48.
	got = v.FinishTime(10, 3, 0, false, BankConflict)
	if want := FromCycles(48); got != want {
		t.Fatalf("conflict FinishTime = %v cycles, want 48", got.Float())
	}

	// A write hit pays tWL = 4: C.F = 10 + 8 + 8 = 26.
	got = v.FinishTime(10, 3, 0, true, BankHit)
	if want := FromCycles(26); got != want {
		t.Fatalf("write hit FinishTime = %v cycles, want 26", got.Float())
	}
}

// TestUpdateEquations8And9 checks the Table 4 register updates for a
// full precharge-activate-read sequence of one request.
func TestUpdateEquations8And9(t *testing.T) {
	tt := dram.DDR2800()
	v := NewVTMS(0, Share{1, 2}, 8, tt)

	// Precharge: B.R = max{20, 0} + (tRP + tRAS - tRCD - tCL)/phi
	//                = 20 + (5+8)*2 = 46.
	v.OnCommandIssue(CmdPrecharge, 20, 1, 0, false)
	if got, want := v.BankR(1), FromCycles(46); got != want {
		t.Fatalf("after precharge B.R = %v, want 46", got.Float())
	}
	// Activate: B.R = max{20, 46} + tRCD*2 = 46 + 10 = 56.
	v.OnCommandIssue(CmdActivate, 20, 1, 0, false)
	if got, want := v.BankR(1), FromCycles(56); got != want {
		t.Fatalf("after activate B.R = %v, want 56", got.Float())
	}
	// Read: B.R = 56 + tCL*2 = 66; C.R = max{66, 0} + 4*2 = 74.
	v.OnCommandIssue(CmdRead, 20, 1, 0, false)
	if got, want := v.BankR(1), FromCycles(66); got != want {
		t.Fatalf("after read B.R = %v, want 66", got.Float())
	}
	if got, want := v.ChanR(), FromCycles(74); got != want {
		t.Fatalf("after read C.R = %v, want 74", got.Float())
	}
	// Other banks are untouched.
	if v.BankR(0) != 0 || v.BankR(7) != 0 {
		t.Fatal("unrelated bank registers modified")
	}
}

// TestVTMSShareScaling: a thread with half the share accumulates virtual
// time twice as fast (the definition of the time-scaled private memory
// system).
func TestVTMSShareScaling(t *testing.T) {
	tt := dram.DDR2800()
	full := NewVTMS(0, Share{1, 1}, 8, tt)
	half := NewVTMS(1, Share{1, 2}, 8, tt)
	for i := 0; i < 10; i++ {
		full.OnCommandIssue(CmdRead, 0, 2, 0, false)
		half.OnCommandIssue(CmdRead, 0, 2, 0, false)
	}
	if half.BankR(2) != 2*full.BankR(2) {
		t.Fatalf("half-share bank register %v != 2 x full-share %v",
			half.BankR(2).Float(), full.BankR(2).Float())
	}
	if half.ChanR() <= full.ChanR() {
		t.Fatal("half-share channel register should exceed full-share")
	}
}

// TestVTMSMonotonicity: per-resource finish-time registers never
// decrease, for random command sequences (a core fairness invariant:
// virtual time only advances).
func TestVTMSMonotonicity(t *testing.T) {
	tt := dram.DDR2800()
	f := func(cmds []uint8, arrivals []uint16) bool {
		v := NewVTMS(0, Share{1, 3}, 4, tt)
		lastBank := make([]VTime, 4)
		lastChan := VTime(0)
		for i, c := range cmds {
			if i >= len(arrivals) {
				break
			}
			kind := []CmdKind{CmdPrecharge, CmdActivate, CmdRead, CmdWrite}[c%4]
			bank := int(c/4) % 4
			v.OnCommandIssue(kind, int64(arrivals[i]), bank, 0, kind == CmdWrite)
			if v.BankR(bank) < lastBank[bank] || v.ChanR() < lastChan {
				return false
			}
			lastBank[bank] = v.BankR(bank)
			lastChan = v.ChanR()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVTMSFinishTimeRespectsArrival: for an idle VTMS the finish time
// grows linearly with arrival time (the request is limited by its own
// arrival, not by past service).
func TestVTMSFinishTimeRespectsArrival(t *testing.T) {
	tt := dram.DDR2800()
	v := NewVTMS(0, Share{1, 2}, 8, tt)
	f1 := v.FinishTime(100, 0, 0, false, BankClosed)
	f2 := v.FinishTime(200, 0, 0, false, BankClosed)
	if f2-f1 != FromCycles(100) {
		t.Fatalf("finish-time delta = %v cycles, want 100", (f2 - f1).Float())
	}
}

func TestNewVTMSPanicsOnInvalidShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid share")
		}
	}()
	NewVTMS(0, Share{0, 1}, 8, dram.DDR2800())
}

func TestVTMSSetShare(t *testing.T) {
	tt := dram.DDR2800()
	v := NewVTMS(0, Share{1, 2}, 8, tt)
	v.OnCommandIssue(CmdRead, 0, 0, 0, false)
	before := v.BankR(0)
	v.SetShare(Share{1, 4})
	if v.BankR(0) != before {
		t.Fatal("SetShare rewrote history")
	}
	v.OnCommandIssue(CmdRead, 0, 1, 0, false)
	// New rate: tCL * 4 = 20 cycles of virtual service on bank 1.
	if got, want := v.BankR(1), FromCycles(20); got != want {
		t.Fatalf("post-reassignment service = %v, want 20", got.Float())
	}
	if v.Share() != (Share{1, 4}) {
		t.Fatal("share not updated")
	}
}

func TestVTMSSetSharePanicsOnInvalid(t *testing.T) {
	v := NewVTMS(0, Share{1, 2}, 8, dram.DDR2800())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.SetShare(Share{0, 1})
}

func TestVTMSSetChannels(t *testing.T) {
	tt := dram.DDR2800()
	v := NewVTMS(0, Share{1, 2}, 16, tt)
	v.SetChannels(2)
	// Channel registers are independent.
	v.OnCommandIssue(CmdRead, 0, 0, 0, false)
	if v.ChanRAt(0) == 0 || v.ChanRAt(1) != 0 {
		t.Fatalf("channel registers: %v, %v", v.ChanRAt(0).Float(), v.ChanRAt(1).Float())
	}
	// Finish times on the idle channel ignore channel 0's backlog.
	f0 := v.FinishTime(0, 1, 0, false, BankHit)
	f1 := v.FinishTime(0, 1, 1, false, BankHit)
	if f1 >= f0 {
		t.Fatalf("idle channel finish %v not earlier than busy channel %v", f1.Float(), f0.Float())
	}
}

func TestVTMSSetChannelsPanicsOnZero(t *testing.T) {
	v := NewVTMS(0, Share{1, 2}, 8, dram.DDR2800())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.SetChannels(0)
}
