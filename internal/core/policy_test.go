package core

import (
	"testing"

	"repro/internal/dram"
)

func twoShares() []Share { return []Share{{1, 2}, {1, 2}} }

func req(id uint64, thread int, arrival int64, bank int) *Request {
	return &Request{ID: id, Thread: thread, Arrival: arrival, GlobalBank: bank}
}

func TestFRFCFSKeyIsArrival(t *testing.T) {
	p := NewFRFCFS()
	if p.Name() != "FR-FCFS" {
		t.Errorf("name = %q", p.Name())
	}
	a, b := req(1, 0, 100, 0), req(2, 1, 50, 0)
	if p.Key(a, BankHit) <= p.Key(b, BankHit) {
		t.Error("later arrival should have larger key")
	}
	if rule, _ := p.BankRule(); rule != RuleFirstReady {
		t.Errorf("rule = %v", rule)
	}
	p.OnIssue(a, CmdRead) // must not panic, stateless
}

func TestFCFSIsStrict(t *testing.T) {
	p := NewFCFS()
	if rule, _ := p.BankRule(); rule != RuleStrict {
		t.Errorf("rule = %v", rule)
	}
}

func TestFRVFTFKeyUsesVTMS(t *testing.T) {
	tt := dram.DDR2800()
	p := NewFRVFTF(twoShares(), 8, tt)
	if p.Name() != "FR-VFTF" {
		t.Errorf("name = %q", p.Name())
	}
	// Same arrival, same bank state: both threads idle, keys equal.
	a, b := req(1, 0, 10, 0), req(2, 1, 10, 0)
	if p.Key(a, BankClosed) != p.Key(b, BankClosed) {
		t.Error("identical idle threads should have equal keys")
	}
	// Thread 0 consumes service; its next request's key must exceed
	// thread 1's (fairness: past consumption pushes virtual time ahead).
	for i := 0; i < 5; i++ {
		r := req(uint64(10+i), 0, 10, 0)
		p.OnIssue(r, CmdActivate)
		p.OnIssue(r, CmdRead)
	}
	a2, b2 := req(20, 0, 50, 0), req(21, 1, 50, 0)
	if p.Key(a2, BankClosed) <= p.Key(b2, BankClosed) {
		t.Error("thread with more past service should have later finish time")
	}
}

func TestFQVFTFBankRule(t *testing.T) {
	tt := dram.DDR2800()
	p := NewFQVFTF(twoShares(), 8, tt)
	rule, x := p.BankRule()
	if rule != RuleFQ {
		t.Errorf("rule = %v, want RuleFQ", rule)
	}
	if x != int64(tt.TRAS) {
		t.Errorf("inversion bound = %d, want tRAS = %d", x, tt.TRAS)
	}
	p2 := NewFQVFTFBound(twoShares(), 8, tt, 7)
	if _, x := p2.BankRule(); x != 7 {
		t.Errorf("explicit bound = %d, want 7", x)
	}
}

func TestFQVFTFBoundPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFQVFTFBound(twoShares(), 8, dram.DDR2800(), -1)
}

func TestFRVSTFKeyIsStartTime(t *testing.T) {
	tt := dram.DDR2800()
	p := NewFRVSTF(twoShares(), 8, tt)
	if p.Name() != "FR-VSTF" {
		t.Errorf("name = %q", p.Name())
	}
	// Start time for an idle thread is just the arrival.
	r := req(1, 0, 25, 0)
	if got, want := p.Key(r, BankClosed), int64(FromCycles(25)); got != want {
		t.Fatalf("start-time key = %d, want %d", got, want)
	}
	// Bank state must not affect a start-time key.
	if p.Key(r, BankConflict) != p.Key(r, BankHit) {
		t.Error("start-time key depends on bank state")
	}
}

// TestVFTFFairnessOrdering: after thread 0 monopolizes the memory for a
// while, a fresh request from thread 1 must beat thread 0's next request
// under VFTF (the paper's fairness policy: excess bandwidth goes to the
// thread that consumed least).
func TestVFTFFairnessOrdering(t *testing.T) {
	tt := dram.DDR2800()
	p := NewFRVFTF(twoShares(), 8, tt)
	now := int64(0)
	for i := 0; i < 50; i++ {
		r := req(uint64(i), 0, now, i%8)
		p.OnIssue(r, CmdActivate)
		p.OnIssue(r, CmdRead)
		now += 6
	}
	hog := req(100, 0, now, 0)
	newcomer := req(101, 1, now, 0)
	if p.Key(newcomer, BankClosed) >= p.Key(hog, BankClosed) {
		t.Fatal("newcomer should have earlier virtual finish time than the hog")
	}
}

// TestBankStateString covers the Stringers.
func TestBankStateString(t *testing.T) {
	if BankConflict.String() != "conflict" || BankClosed.String() != "closed" || BankHit.String() != "hit" {
		t.Error("BankState strings wrong")
	}
}

func TestPolicyShareSetter(t *testing.T) {
	tt := dram.DDR2800()
	p := NewFQVFTF(twoShares(), 8, tt)
	var _ ShareSetter = p
	var _ ChannelSetter = p
	p.SetThreadShare(1, Share{1, 8})
	if p.ThreadVTMS(1).Share() != (Share{1, 8}) {
		t.Fatal("share not propagated")
	}
	// FR-FCFS has no shares and must not satisfy the interfaces.
	var any interface{} = NewFRFCFS()
	if _, ok := any.(ShareSetter); ok {
		t.Fatal("FR-FCFS claims share support")
	}
}
