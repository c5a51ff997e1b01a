package memctrl

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
)

// intfCtrl builds a controller with delay attribution (and the audit
// layer, so every test doubles as a conservation check) on the linear
// two-thread harness.
func intfCtrl(t *testing.T, threads int, p core.Policy) *Controller {
	t.Helper()
	cfg := linearConfig(t, threads)
	cfg.Interference = true
	cfg.Audit = true
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInterferenceSoloZeroCross: a thread running alone suffers no
// cross-thread interference — every attributed cycle lands in its own
// column or the "none" bucket, and the other thread's row stays zero.
func TestInterferenceSoloZeroCross(t *testing.T) {
	c := intfCtrl(t, 2, core.NewFRFCFS())
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(0, addr(2, 6, 0), false, 0) // same bank, different row: conflict
	if runUntil(c, 0, 500, func() bool { return done == 2 }) < 0 {
		t.Fatal("reads never completed")
	}
	snap, ok := c.InterferenceSnapshot(false)
	if !ok {
		t.Fatal("attribution off despite cfg.Interference")
	}
	if snap.Cross != 0 {
		t.Errorf("solo run attributed %d cross-thread cycles, want 0\nmatrix: %v", snap.Cross, snap.Matrix)
	}
	if snap.Total <= 0 {
		t.Error("solo run attributed no cycles at all; the second (conflicting) read must have waited")
	}
	for a, cells := range snap.Matrix[1] {
		if cells != 0 {
			t.Errorf("idle thread 1 charged %d cycles to aggressor %d, want 0", cells, a)
		}
	}
	c.FinishAudit(500)
}

// TestInterferenceTwoThreadExact: two threads, one request each, same
// bank and same row, both arriving at cycle 0 under FR-FCFS. The DDR2
// timing makes the schedule exact: thread 0's ACT issues at 0 and its
// RD at tRCD; thread 1's RD is then data-bus bound and issues at
// tRCD+BL2 (BL2 > tCCD). Every waited cycle of thread 1 is thread 0's
// fault, so the pair matrix is fully determined.
func TestInterferenceTwoThreadExact(t *testing.T) {
	c := intfCtrl(t, 2, core.NewFRFCFS())
	tt := dram.DDR2800()
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(1, addr(2, 5, 1), false, 0)
	if runUntil(c, 0, 500, func() bool { return done == 2 }) < 0 {
		t.Fatal("reads never completed")
	}
	snap, _ := c.InterferenceSnapshot(false)

	wantSelf := int64(tt.TRCD)           // thread 0 waits out its own ACT->RD
	wantCross := int64(tt.TRCD + tt.BL2) // thread 1: bank busy, then bus busy
	if got := snap.Matrix[0][0]; got != wantSelf {
		t.Errorf("Matrix[0][0] = %d, want %d (own tRCD wait)", got, wantSelf)
	}
	if got := snap.Matrix[1][0]; got != wantCross {
		t.Errorf("Matrix[1][0] = %d, want %d (tRCD + BL2 behind thread 0)", got, wantCross)
	}
	if got := snap.Matrix[0][1]; got != 0 {
		t.Errorf("Matrix[0][1] = %d, want 0: thread 0 never waited on thread 1", got)
	}
	if got := snap.Matrix[1][1]; got != 0 {
		t.Errorf("Matrix[1][1] = %d, want 0: thread 1 had no prior request of its own", got)
	}
	none := snap.Threads
	if got := snap.Matrix[0][none] + snap.Matrix[1][none]; got != 0 {
		t.Errorf("no-aggressor bucket holds %d cycles, want 0 (refresh is off)", got)
	}
	if snap.Cross != wantCross {
		t.Errorf("Cross = %d, want %d", snap.Cross, wantCross)
	}
	if want := wantSelf + wantCross; snap.Total != want {
		t.Errorf("Total = %d, want %d (sum of both queueing delays)", snap.Total, want)
	}

	// Cause-level consistency: thread 0's wait is all bank_self; thread
	// 1's wait splits between bank busy, bus busy, and bank-ready
	// cycles the channel spent serving thread 0 — never the no-aggressor
	// timing or refresh buckets.
	if got := snap.Cube[0][0][causeBankSelf]; got != wantSelf {
		t.Errorf("Cube[0][0][bank_self] = %d, want %d", got, wantSelf)
	}
	row := snap.Cube[1][0]
	if got := row[causeBankOther] + row[causeBus] + row[causePolicy]; got != wantCross {
		t.Errorf("Cube[1][0] sums to %d, want %d (cube: %v)", got, wantCross, row)
	}
	if row[causeBankOther] == 0 || row[causeBus] == 0 {
		t.Errorf("thread 1's wait should include both bank-busy and bus-busy cycles, got %v", row)
	}
	if row[causeTiming] != 0 || row[causeRefresh] != 0 {
		t.Errorf("timing/refresh cycles charged to a thread column: %v", row)
	}
	var causeSum int64
	for _, n := range snap.CauseTotals {
		causeSum += n
	}
	if causeSum != snap.Total {
		t.Errorf("cause totals sum to %d, total is %d", causeSum, snap.Total)
	}
	c.FinishAudit(500)
}

// intfModes runs a scenario with the event-driven path and with the
// per-cycle oracle; attribution hears only the event stream, so both
// must report the same cube.
func intfModes(t *testing.T, run func(t *testing.T, eventDriven bool)) {
	for _, ed := range []bool{true, false} {
		t.Run(map[bool]string{true: "fast", false: "strict"}[ed], func(t *testing.T) { run(t, ed) })
	}
}

// TestInterferenceArrivalCycle: a request accepted after its cycle's
// tick (as sim.Step accepts) missed that cycle's scheduling. Its arrival
// cycle is charged to the policy with no aggressor when its command was
// already legal, not to the thread whose row is open, and is an
// ordinary blocked cycle when the command was not legal.
func TestInterferenceArrivalCycle(t *testing.T) {
	intfModes(t, func(t *testing.T, eventDriven bool) {
		c := intfCtrl(t, 3, core.NewFRFCFS())
		c.SetEventDriven(eventDriven)
		tt := dram.DDR2800()
		done := 0
		c.OnReadDone = func(*core.Request, int64) { done++ }
		// Thread 0 arrives after tick 0 at a closed bank: ACT at 1, RD at
		// 1+tRCD. Thread 2 arrives after tick 2 under thread 0's new row:
		// its precharge waits out thread 0's tRAS from its arrival on.
		// Thread 1 arrives after tick 12 with a read of the open row that
		// is legal at once, and issues at 13.
		arrive := map[int64]func(){
			0:  func() { c.Accept(0, addr(2, 5, 0), false, 0) },
			2:  func() { c.Accept(2, addr(2, 6, 0), false, 2) },
			12: func() { c.Accept(1, addr(2, 5, 1), false, 12) },
		}
		for now := int64(0); now < 500 && done < 3; now++ {
			c.Tick(now)
			if f := arrive[now]; f != nil {
				f()
			}
		}
		if done < 3 {
			t.Fatal("reads never completed")
		}
		snap, _ := c.InterferenceSnapshot(false)
		none := snap.Threads
		checkCube(t, snap, map[[3]int]int64{
			{0, none, causePolicy}: 1, // the arrival cycle, legal
			{0, 0, causeBankSelf}:  int64(tt.TRCD),
			{1, none, causePolicy}: 1,                      // the arrival cycle, legal
			{2, 0, causeBankOther}: int64(1 + tt.TRAS - 2), // [2, 1+tRAS): arrival cycle blocked
			{2, 2, causeBankSelf}:  int64(tt.TRP + tt.TRCD),
		})
		c.FinishAudit(500)
	})
}

// refreshCtrl is intfCtrl with a refresh due every 600 cycles.
func refreshCtrl(t *testing.T, threads int, eventDriven bool) *Controller {
	t.Helper()
	cfg := linearConfig(t, threads)
	cfg.DisableRefresh = false
	cfg.DRAM.Timing.TREF = 600
	cfg.Interference, cfg.Audit = true, true
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	c.SetEventDriven(eventDriven)
	return c
}

// TestInterferenceRefreshCycle: a command that becomes legal exactly at
// the cycle a refresh issues is still blocked, because that cycle
// schedules no bank. Thread 1's activate and the refresh both wait for
// the precharge thread 1's conflict forced, so its wait from that
// precharge to the refresh's end is the refresh's, tRP included. And a
// request that arrives after the tick just before a refresh is first
// scheduled after it, so its arrival cycle is the refresh's too.
func TestInterferenceRefreshCycle(t *testing.T) {
	t.Run("arrival-before-refresh", func(t *testing.T) { intfModes(t, arrivalBeforeRefresh) })
	t.Run("legal-at-refresh", func(t *testing.T) { intfModes(t, legalAtRefresh) })
}

// arrivalBeforeRefresh: the request arrives after the tick before a
// refresh that issues at once.
func arrivalBeforeRefresh(t *testing.T, eventDriven bool) {
	c := refreshCtrl(t, 1, eventDriven)
	tt := c.cfg.DRAM.Timing
	done := false
	c.OnReadDone = func(*core.Request, int64) { done = true }
	for now := int64(0); now < int64(tt.TREF); now++ {
		c.Tick(now)
	}
	c.Accept(0, addr(2, 5, 0), false, int64(tt.TREF-1))
	if runUntil(c, int64(tt.TREF), 2_000, func() bool { return done }) < 0 {
		t.Fatal("read never completed")
	}
	snap, _ := c.InterferenceSnapshot(false)
	checkCube(t, snap, map[[3]int]int64{
		{0, snap.Threads, causeRefresh}: int64(1 + tt.TRFC),
		{0, 0, causeBankSelf}:           int64(tt.TRCD),
	})
	c.FinishAudit(2_000)
}

// legalAtRefresh: thread 1's activate becomes legal at the refresh
// cycle.
func legalAtRefresh(t *testing.T, eventDriven bool) {
	c := refreshCtrl(t, 2, eventDriven)
	tt := c.cfg.DRAM.Timing
	done := 0
	c.OnReadDone = func(*core.Request, int64) { done++ }
	var refreshAt int64 = -1
	c.obs = append(c.obs, &refreshWatch{at: &refreshAt})
	// Both arrive before tick 580; thread 0 activates at 580 and reads
	// at 585, thread 1's precharge waits for tRAS (598), and its
	// activate and the due refresh are both legal tRP later.
	const arrive = 580
	for now := int64(0); now < arrive; now++ {
		c.Tick(now)
	}
	c.Accept(0, addr(2, 5, 0), false, arrive)
	c.Accept(1, addr(2, 6, 0), false, arrive)
	if runUntil(c, arrive, 2_000, func() bool { return done == 2 }) < 0 {
		t.Fatal("reads never completed")
	}
	pre := int64(arrive + tt.TRAS)
	if want := pre + int64(tt.TRP); refreshAt != want {
		t.Fatalf("refresh issued at %d, want %d (the scenario assumes it)", refreshAt, want)
	}
	snap, _ := c.InterferenceSnapshot(false)
	none := snap.Threads
	want := map[[3]int]int64{
		{0, 0, causeBankSelf}:   int64(tt.TRCD),
		{1, 0, causePolicy}:     1, // thread 0's activate won cycle 580
		{1, 0, causeBankOther}:  int64(tt.TRAS - 1),
		{1, none, causeRefresh}: int64(tt.TRP + tt.TRFC),
		{1, 1, causeBankSelf}:   int64(tt.TRCD),
	}
	checkCube(t, snap, want)
	c.FinishAudit(2_000)
}

// refreshWatch records the cycle of the last refresh.
type refreshWatch struct {
	nopObserver
	at *int64
}

func (w *refreshWatch) OnRefresh(_ int, now int64) { *w.at = now }

// checkCube demands that the cube holds exactly the given cells, keyed
// (victim, aggressor, cause), and zero elsewhere.
func checkCube(t *testing.T, snap InterferenceSnapshot, want map[[3]int]int64) {
	t.Helper()
	for v, byAggr := range snap.Cube {
		for a, byCause := range byAggr {
			for cause, got := range byCause {
				if w := want[[3]int{v, a, cause}]; got != w {
					t.Errorf("cube[v%d][a%d][%s] = %d, want %d", v, a, causeNames[cause], got, w)
				}
			}
		}
	}
}

// TestInterferenceFQInversionPolicyCause: under FQ-VFTF with unequal
// shares, the prioritized (high-share) thread's requests overtake the
// low-share thread's ready requests — and those scheduling decisions
// must be charged to the beneficiary under the policy cause, not
// hidden in the timing buckets.
func TestInterferenceFQInversionPolicyCause(t *testing.T) {
	tt := dram.DDR2800()
	shares := []core.Share{{Num: 3, Den: 4}, {Num: 1, Den: 4}}
	c := intfCtrl(t, 2, core.NewFQVFTF(shares, 8, tt))

	// Both threads hammer bank 2 with row conflicts, queues kept
	// stocked so the scheduler always has an inversion to exploit.
	next := [2]int{}
	for now := int64(0); now < 20_000; now++ {
		for th := 0; th < 2; th++ {
			if c.Accept(th, addr(2, th*1000+next[th]%500, 0), false, now) {
				next[th]++
			}
		}
		c.Tick(now)
	}
	snap, _ := c.InterferenceSnapshot(false)
	lowOnHigh := snap.Cube[1][0][causePolicy]
	highOnLow := snap.Cube[0][1][causePolicy]
	if lowOnHigh == 0 {
		t.Fatalf("no policy-cause cycles charged to the prioritized thread\ncube[1][0]: %v", snap.Cube[1][0])
	}
	if lowOnHigh <= highOnLow {
		t.Errorf("policy cycles: low-share victim charged %d to thread 0, high-share victim charged %d to thread 1; want the low-share thread to suffer more",
			lowOnHigh, highOnLow)
	}
}

// TestInterferenceConservationAuditFires plants a fault: tampering
// with the per-slot attributed totals mid-wait must trip the audit
// conservation invariant (attributed cycles == arrival-to-CAS wait) at
// the next service start. This proves the clean FinishAudit runs in
// the other tests are checking something real.
func TestInterferenceConservationAuditFires(t *testing.T) {
	c := intfCtrl(t, 2, core.NewFRFCFS())
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(1, addr(2, 5, 1), false, 0)
	// Let the waits accumulate but stop before the first CAS (tRCD).
	c.Tick(0)
	c.Tick(1)
	for i := range c.intf.attr {
		c.intf.attr[i].total++ // double-count one cycle on every slot
	}
	defer func() {
		v, ok := recover().(*audit.Violation)
		if !ok {
			t.Fatal("tampered attribution totals did not trip the audit conservation check")
		}
		if v.Cycle <= 1 {
			t.Errorf("violation at cycle %d, want it at the first CAS issue", v.Cycle)
		}
	}()
	for now := int64(2); now < 500; now++ {
		c.Tick(now)
	}
	t.Fatal("ran to completion despite tampered attribution totals")
}
