package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
)

func twoShares() []core.Share { return []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}} }

// newAuditor builds an auditor over a real single-channel device model;
// mutate may adjust the target before construction.
func newAuditor(t *testing.T, pol core.Policy, cfg audit.Config, mutate func(*audit.Target)) (*audit.Auditor, *dram.Channel) {
	t.Helper()
	dcfg := dram.DefaultConfig()
	ch, err := dram.NewChannel(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := audit.Target{
		Timing:          dcfg.Timing,
		Channels:        1,
		Ranks:           1,
		BanksPerRank:    8,
		Threads:         2,
		ReadEntries:     16,
		WriteEntries:    8,
		RefreshDisabled: true,
		Policy:          pol,
		Chans:           []*dram.Channel{ch},
	}
	if mutate != nil {
		mutate(&tgt)
	}
	return audit.New(cfg, tgt), ch
}

// accept registers a request with the auditor the way the controller
// stamps one.
func accept(a *audit.Auditor, id uint64, thread, bank, row int, now int64) *core.Request {
	r := &core.Request{
		ID: id, Thread: thread, Arrival: now, ArrivalReal: now,
		Bank: bank, Row: row, GlobalBank: bank,
	}
	a.OnAccept(r, now)
	return r
}

// bankState mirrors the controller's Table 3 classification against the
// live device.
func bankState(ch *dram.Channel, r *core.Request) core.BankState {
	row, open := ch.BankOpen(r.GlobalBank)
	switch {
	case !open:
		return core.BankClosed
	case row == r.Row:
		return core.BankHit
	default:
		return core.BankConflict
	}
}

// issueCmd emulates the controller's issue sequence: audit BeforeIssue,
// device issue, key freeze on the first command, policy update, audit
// AfterIssue. It returns the read's data-burst end for KindRead.
func issueCmd(a *audit.Auditor, ch *dram.Channel, pol core.Policy, kind dram.Kind, r *core.Request, now int64) int64 {
	cmd := audit.Cmd{
		Kind: kind, FlatBank: r.GlobalBank, Row: r.Row,
		Key: core.KeyOf(pol, r, bankState(ch, r)), Req: r, First: r.Issued == 0,
	}
	a.BeforeIssue(cmd, now)
	end := ch.Issue(kind, r.GlobalBank, r.Row, now)
	if cmd.First {
		r.Key, r.KeyFrozen = core.VTime(cmd.Key), true
	}
	pol.OnIssue(r, kind)
	r.Issued++
	a.AfterIssue(cmd, now)
	return end
}

// expectViolation asserts fn panics with a *Violation mentioning substr.
func expectViolation(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatalf("no violation (want one mentioning %q)", substr)
		}
		viol, ok := v.(*audit.Violation)
		if !ok {
			panic(v)
		}
		if !strings.Contains(viol.Msg, substr) {
			t.Fatalf("violation %q does not mention %q", viol.Msg, substr)
		}
		if viol.Error() == "" || viol.Dump == "" {
			t.Error("violation carries no history dump")
		}
	}()
	fn()
}

func TestAuditCleanReadLifecycle(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	end := issueCmd(a, ch, pol, dram.KindRead, r, 5)
	a.OnReadDone(r, end, end)
	a.Finish(end)
	if a.Commands() != 2 {
		t.Fatalf("Commands = %d, want 2", a.Commands())
	}
}

func TestAuditCatchesTimingViolation(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	// tRCD is 5: a read at cycle 2 violates it.
	expectViolation(t, "violates timing", func() {
		issueCmd(a, ch, pol, dram.KindRead, r, 2)
	})
}

func TestAuditCatchesNonMonotoneID(t *testing.T) {
	a, _ := newAuditor(t, core.NewFRFCFS(), audit.Config{}, nil)
	accept(a, 1, 0, 0, 0, 0)
	expectViolation(t, "not monotone", func() {
		accept(a, 3, 0, 1, 0, 1)
	})
}

func TestAuditCatchesStarvation(t *testing.T) {
	a, _ := newAuditor(t, core.NewFRFCFS(), audit.Config{MaxAge: 100}, nil)
	accept(a, 1, 0, 0, 0, 0)
	expectViolation(t, "starved", func() {
		a.OnTick(200)
	})
}

func TestAuditCatchesOccupancyOverflow(t *testing.T) {
	a, _ := newAuditor(t, core.NewFRFCFS(), audit.Config{}, func(tg *audit.Target) {
		tg.ReadEntries = 1
	})
	accept(a, 1, 0, 0, 0, 0)
	expectViolation(t, "occupancy", func() {
		accept(a, 2, 0, 1, 0, 1)
	})
}

func TestAuditCatchesConservationMismatch(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, func(tg *audit.Target) {
		// A controller whose accounting always reads zero.
		tg.Totals = func(int) audit.Totals { return audit.Totals{} }
	})
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	end := issueCmd(a, ch, pol, dram.KindRead, r, 5)
	expectViolation(t, "accounting diverged", func() {
		a.OnReadDone(r, end, end)
	})
}

func TestAuditCatchesFrozenKeyChange(t *testing.T) {
	pol := core.NewFRVFTF(twoShares(), 8, dram.DDR2800())
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	// Simulate a corrupted frozen key: the value the controller froze at
	// the first command drifts afterwards.
	r.Key += 12345
	expectViolation(t, "frozen key", func() {
		issueCmd(a, ch, pol, dram.KindRead, r, 5)
	})
}

// TestAuditCatchesMissingFreeze: a controller that issues a request's
// first command without freezing the key it ranked is reported.
func TestAuditCatchesMissingFreeze(t *testing.T) {
	pol := core.NewFRVFTF(twoShares(), 8, dram.DDR2800())
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	cmd := audit.Cmd{
		Kind: dram.KindActivate, FlatBank: r.GlobalBank, Row: r.Row,
		Key: core.KeyOf(pol, r, bankState(ch, r)), Req: r, First: true,
	}
	a.BeforeIssue(cmd, 0)
	ch.Issue(cmd.Kind, r.GlobalBank, r.Row, 0)
	pol.OnIssue(r, cmd.Kind)
	r.Issued++
	expectViolation(t, "first command issued under key", func() {
		a.AfterIssue(cmd, 0)
	})
}

func TestAuditCatchesMinKeyViolation(t *testing.T) {
	pol := core.NewFCFS() // RuleStrict: smallest arrival must win
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	accept(a, 1, 0, 0, 3, 0)
	r2 := accept(a, 2, 1, 0, 7, 1)
	expectViolation(t, "minimum-key", func() {
		issueCmd(a, ch, pol, dram.KindActivate, r2, 2)
	})
}

func TestAuditCatchesRefreshWithOpenBank(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	expectViolation(t, "open", func() {
		a.OnRefresh(0, 10)
	})
}

func TestAuditCatchesOverdueRefresh(t *testing.T) {
	a, _ := newAuditor(t, core.NewFRFCFS(), audit.Config{}, func(tg *audit.Target) {
		tg.RefreshDisabled = false
	})
	tref := int64(dram.DDR2800().TREF)
	a.OnTick(tref) // within slack: fine
	expectViolation(t, "refresh overdue", func() {
		a.OnTick(tref + 26_000)
	})
}

func TestAuditCatchesWrongNextCommand(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	// The bank is closed: a read is illegal at the device level.
	expectViolation(t, "shadow", func() {
		issueCmd(a, ch, pol, dram.KindRead, r, 0)
	})
}

func TestAuditCatchesWrongServiceStep(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	// Row 3 is open for this request: it needs its CAS, not a precharge
	// (which is device-legal at tRAS but wrong for the request).
	expectViolation(t, "needs", func() {
		issueCmd(a, ch, pol, dram.KindPrecharge, r, 18)
	})
}

// fakeInterval is a scriptable interval policy: it exposes the full
// tickerProvider/blissProvider/slowdownProvider/budgetProvider surface
// with directly settable state, so tests can plant contract faults the
// real policies cannot produce.
type fakeInterval struct {
	last, next, iv int64
	black          [2]bool
	boost          int
	budget         int64
	quota          int64
}

func (f *fakeInterval) Name() string                                { return "FAKE-INTERVAL" }
func (f *fakeInterval) Key(r *core.Request, _ core.BankState) int64 { return r.Arrival }
func (f *fakeInterval) OnIssue(*core.Request, core.CmdKind)         {}
func (f *fakeInterval) BankRule() (core.BankRule, int64)            { return core.RuleFirstReady, 0 }
func (f *fakeInterval) LastTickAt() int64                           { return f.last }
func (f *fakeInterval) NextTickAt() int64                           { return f.next }
func (f *fakeInterval) TickInterval() int64                         { return f.iv }
func (f *fakeInterval) Blacklisted(t int) bool                      { return f.black[t] }
func (f *fakeInterval) BoostedThread() int                          { return f.boost }
func (f *fakeInterval) BankBudget(_, _ int) int64                   { return f.budget }
func (f *fakeInterval) BudgetQuota() int64                          { return f.quota }

func newFakeInterval() *fakeInterval {
	return &fakeInterval{next: 1_000, iv: 1_000, boost: -1, budget: 8, quota: 8}
}

func TestAuditCatchesOutOfBandTick(t *testing.T) {
	pol := core.NewBLISS(2)
	a, _ := newAuditor(t, pol, audit.Config{}, nil)
	a.OnTick(10) // clean mid-window
	// An out-of-band Tick (the controller fired mid-window): the window
	// bookkeeping no longer satisfies next = last + interval.
	pol.Tick(500)
	expectViolation(t, "window inconsistent", func() { a.OnTick(600) })
}

func TestAuditCatchesMissedTickBoundary(t *testing.T) {
	pol := core.NewBLISS(2) // 1k-cycle window
	a, _ := newAuditor(t, pol, audit.Config{}, nil)
	expectViolation(t, "no Tick fired", func() { a.OnTick(1_500) })
}

func TestAuditCatchesBlacklistFlipOutsideTick(t *testing.T) {
	f := newFakeInterval()
	a, _ := newAuditor(t, f, audit.Config{}, nil)
	a.OnTick(10)
	// A flip observed on the boundary cycle its tick fired is legal...
	f.last, f.next = 1_000, 2_000
	f.black[0] = true
	a.OnTick(1_000)
	// ...the same flip mid-window is a violation.
	f.black[1] = true
	expectViolation(t, "blacklist bit flipped", func() { a.OnTick(1_200) })
}

func TestAuditCatchesBoostMoveOutsideTick(t *testing.T) {
	f := newFakeInterval()
	a, _ := newAuditor(t, f, audit.Config{}, nil)
	f.last, f.next = 1_000, 2_000
	f.boost = 1
	a.OnTick(1_000) // boundary retarget: legal
	f.boost = 0
	expectViolation(t, "boost target moved", func() { a.OnTick(1_500) })
}

func TestAuditCatchesBudgetAccountingDivergence(t *testing.T) {
	f := newFakeInterval()
	a, ch := newAuditor(t, f, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, f, dram.KindActivate, r, 0)
	// The fake never spends budget, so after the CAS the auditor's own
	// ledger expects quota - 1 and the reported quota is a divergence.
	expectViolation(t, "budget accounting diverged", func() {
		issueCmd(a, ch, f, dram.KindRead, r, 5)
	})
}

func TestAuditBankBWCleanAccounting(t *testing.T) {
	pol := core.NewBankBW(2, 8)
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	r := accept(a, 1, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	end := issueCmd(a, ch, pol, dram.KindRead, r, 5)
	a.OnReadDone(r, end, end)
	a.Finish(end)
	if got := pol.BankBudget(0, 0); got != pol.BudgetQuota()-1 {
		t.Fatalf("budget after one CAS = %d, want %d", got, pol.BudgetQuota()-1)
	}
}

func TestAuditCatchesDoubleCompletion(t *testing.T) {
	pol := core.NewFRFCFS()
	a, ch := newAuditor(t, pol, audit.Config{}, nil)
	// An older still-pending request keeps the completion ledger from
	// garbage-collecting r after its first completion.
	accept(a, 1, 0, 1, 0, 0)
	r := accept(a, 2, 0, 0, 3, 0)
	issueCmd(a, ch, pol, dram.KindActivate, r, 0)
	end := issueCmd(a, ch, pol, dram.KindRead, r, 5)
	a.OnReadDone(r, end, end)
	expectViolation(t, "twice", func() {
		a.OnReadDone(r, end, end+1)
	})
}
