package memctrl

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/dram"
)

// linearConfig returns a 2-thread controller with a linear address map
// (so tests can place requests on exact banks/rows) and refresh off.
func linearConfig(t *testing.T, threads int) Config {
	t.Helper()
	cfg := DefaultConfig(threads)
	cfg.DisableRefresh = true
	g := addrmap.Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 16384, ColsPerRow: 128}
	m, err := addrmap.NewLinear(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mapper = m
	return cfg
}

// addr builds a line address with the given bank, row, and column under
// the linear map.
func addr(bank, row, col int) uint64 {
	return uint64(row)<<10 | uint64(bank)<<7 | uint64(col)
}

func newCtrl(t *testing.T, threads int, p core.Policy) *Controller {
	t.Helper()
	c, err := New(linearConfig(t, threads), p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runUntil ticks the controller until pred or the cycle bound.
func runUntil(c *Controller, from, bound int64, pred func() bool) int64 {
	for now := from; now < bound; now++ {
		c.Tick(now)
		if pred() {
			return now
		}
	}
	return -1
}

func TestSingleReadLifecycle(t *testing.T) {
	c := newCtrl(t, 1, core.NewFRFCFS())
	tt := dram.DDR2800()

	var doneAt int64 = -1
	c.OnReadDone = func(r *core.Request, now int64) { doneAt = now }

	if !c.Accept(0, addr(2, 5, 0), false, 0) {
		t.Fatal("accept failed")
	}
	if c.PendingRequests() != 1 {
		t.Fatal("request not pending")
	}
	end := runUntil(c, 0, 200, func() bool { return doneAt >= 0 })
	if end < 0 {
		t.Fatal("read never completed")
	}
	// Closed bank: ACT at cycle 0 (accepted before the first tick), RD
	// at +tRCD, data end at +tCL+BL2. Allow tick alignment slack.
	want := int64(tt.TRCD + tt.TCL + tt.BL2)
	if doneAt < want || doneAt > want+2 {
		t.Errorf("read done at %d, want about %d", doneAt, want)
	}
	st := c.Stats(0)
	if st.ReadsDone != 1 || st.ReadsAccepted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RowClosed != 1 || st.RowHits != 0 || st.RowConflicts != 0 {
		t.Errorf("bank state counts = %+v", st)
	}
	if c.CommandCount(dram.KindActivate) != 1 || c.CommandCount(dram.KindRead) != 1 {
		t.Error("wrong command counts")
	}
}

func TestRowHitSecondRequest(t *testing.T) {
	c := newCtrl(t, 1, core.NewFRFCFS())
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(0, addr(2, 5, 1), false, 0)
	if runUntil(c, 0, 300, func() bool { return done == 2 }) < 0 {
		t.Fatal("reads never completed")
	}
	st := c.Stats(0)
	if st.RowHits != 1 || st.RowClosed != 1 {
		t.Errorf("expected one closed + one hit, got %+v", st)
	}
	// Closed-row policy then closes the idle row.
	if runUntil(c, 300, 400, func() bool { return c.CommandCount(dram.KindPrecharge) == 1 }) < 0 {
		t.Error("idle open row was not closed under the closed-row policy")
	}
}

func TestOpenRowPolicyKeepsRowOpen(t *testing.T) {
	cfg := linearConfig(t, 1)
	cfg.RowPolicy = OpenRow
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	c.Accept(0, addr(2, 5, 0), false, 0)
	for now := int64(0); now < 400; now++ {
		c.Tick(now)
	}
	if done != 1 {
		t.Fatal("read did not complete")
	}
	if c.CommandCount(dram.KindPrecharge) != 0 {
		t.Error("open-row policy precharged an idle row")
	}
	// A conflicting request must now pay the precharge.
	c.Accept(0, addr(2, 9, 0), false, 400)
	for now := int64(400); now < 600; now++ {
		c.Tick(now)
	}
	if c.Stats(0).RowConflicts != 1 {
		t.Errorf("conflict not recorded: %+v", c.Stats(0))
	}
}

func TestBankConflictPrechargePath(t *testing.T) {
	c := newCtrl(t, 1, core.NewFRFCFS())
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	c.Accept(0, addr(1, 5, 0), false, 0)
	c.Accept(0, addr(1, 6, 0), false, 0) // same bank, different row
	if runUntil(c, 0, 500, func() bool { return done == 2 }) < 0 {
		t.Fatal("reads never completed")
	}
	st := c.Stats(0)
	if st.RowConflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (closed-row idle close may race)", st.RowConflicts)
	}
}

func TestNACKBackpressurePerThread(t *testing.T) {
	c := newCtrl(t, 2, core.NewFRFCFS())
	// Fill thread 0's 16-entry read partition without ticking.
	for i := 0; i < 16; i++ {
		if !c.Accept(0, addr(i%8, i, 0), false, 0) {
			t.Fatalf("accept %d failed early", i)
		}
	}
	if c.Accept(0, addr(0, 99, 0), false, 0) {
		t.Fatal("17th read accepted; partition should be full")
	}
	// Thread 1 is unaffected (independent back pressure).
	if !c.Accept(1, addr(0, 500, 0), false, 0) {
		t.Fatal("thread 1 NACKed by thread 0's backlog")
	}
	// Write partition is separate: 8 writes fit, the 9th NACKs.
	for i := 0; i < 8; i++ {
		if !c.Accept(0, addr(i%8, 200+i, 0), true, 0) {
			t.Fatalf("write %d NACKed early", i)
		}
	}
	if c.Accept(0, addr(0, 300, 0), true, 0) {
		t.Fatal("9th write accepted")
	}
}

func TestWriteLifecycle(t *testing.T) {
	c := newCtrl(t, 1, core.NewFRFCFS())
	c.Accept(0, addr(3, 7, 0), true, 0)
	if runUntil(c, 0, 300, func() bool { return c.Stats(0).WritesDone == 1 }) < 0 {
		t.Fatal("write never completed")
	}
	if c.CommandCount(dram.KindWrite) != 1 {
		t.Error("no write command issued")
	}
	if c.Stats(0).DataBusCycles != int64(dram.DDR2800().BL2) {
		t.Errorf("bus cycles = %d", c.Stats(0).DataBusCycles)
	}
}

func TestFCFSArrivalOrderAcrossBanks(t *testing.T) {
	// Under strict FCFS, a later request to a free bank must still wait
	// for the earlier request (no first-ready reordering).
	c := newCtrl(t, 2, core.NewFCFS())
	var order []int
	c.OnReadDone = func(r *core.Request, now int64) { order = append(order, r.Thread) }
	c.Accept(0, addr(0, 1, 0), false, 0)
	c.Tick(0) // ACT for request 0
	c.Accept(1, addr(1, 1, 0), false, 1)
	for now := int64(1); now < 300 && len(order) < 2; now++ {
		c.Tick(now)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("completion order = %v, want [0 1]", order)
	}
}

func TestFRFCFSRowHitsOvertakeOlderConflicts(t *testing.T) {
	// First-ready: a younger row hit is served before an older request
	// to a different row of the same bank (the priority-chaining
	// ingredient).
	c := newCtrl(t, 2, core.NewFRFCFS())
	var order []uint64
	c.OnReadDone = func(r *core.Request, now int64) { order = append(order, r.ID) }
	// Open row 5 of bank 0 via thread 0.
	c.Accept(0, addr(0, 5, 0), false, 0)
	ttt := dram.DDR2800()
	warm := int64(2 + ttt.TRCD) // ACT issued, RD issued
	for now := int64(0); now < warm; now++ {
		c.Tick(now)
	}
	// Now, while row 5 is open: an older conflict (row 6) from thread 1
	// and a younger hit (row 5) from thread 0.
	c.Accept(1, addr(0, 6, 0), false, warm)   // older, conflict
	c.Accept(0, addr(0, 5, 1), false, warm+1) // younger, hit
	for now := warm; now < 500 && len(order) < 3; now++ {
		c.Tick(now)
	}
	if len(order) != 3 {
		t.Fatal("requests did not complete")
	}
	// IDs: 1 = row opener, 2 = conflict, 3 = hit. The hit (3) must
	// finish before the conflict (2).
	if !(order[1] == 3 && order[2] == 2) {
		t.Fatalf("completion order = %v, want hit (3) before conflict (2)", order)
	}
}

func TestFQVFTFBoundsPriorityInversion(t *testing.T) {
	// Same scenario as above but with the FQ scheduler and a thread-0
	// stream that keeps the row busy: thread 1's older conflict must be
	// served within a bounded time, not starved behind the stream.
	shares := []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}}
	tt := dram.DDR2800()
	c := newCtrl(t, 2, core.NewFQVFTF(shares, 8, tt))
	var conflictDone int64 = -1
	c.OnReadDone = func(r *core.Request, now int64) {
		if r.Thread == 1 {
			conflictDone = now
		}
	}
	// Thread 0 continuously streams row 5 hits at bank 0.
	next := 0
	feed := func(now int64) {
		for c.Stats(0).ReadsAccepted-c.Stats(0).ReadsDone < 8 {
			if !c.Accept(0, addr(0, 5, next%128), false, now) {
				break
			}
			next++
		}
	}
	feed(0)
	var arrival int64 = -1
	for now := int64(0); now < 2000 && conflictDone < 0; now++ {
		c.Tick(now)
		feed(now)
		if now == 40 {
			c.Accept(1, addr(0, 6, 0), false, now)
			arrival = now
		}
	}
	if conflictDone < 0 {
		t.Fatal("conflicting request starved under FQ-VFTF")
	}
	// The FQ bank rule bounds inversion to about x = tRAS plus the
	// service itself; allow generous slack for channel contention.
	if wait := conflictDone - arrival; wait > 4*int64(tt.TRAS) {
		t.Errorf("conflict waited %d cycles, want bounded near tRAS=%d", wait, tt.TRAS)
	}
}

func TestRefreshPausesVClock(t *testing.T) {
	cfg := linearConfig(t, 1)
	cfg.DisableRefresh = false
	cfg.DRAM.Timing.TREF = 1000 // refresh early so the test is short
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 5000; now++ {
		c.Tick(now)
	}
	if c.CommandCount(dram.KindRefresh) < 3 {
		t.Fatalf("refreshes = %d, want >= 3", c.CommandCount(dram.KindRefresh))
	}
	// The virtual clock excludes tRFC periods: vclock = cycles - refreshes*tRFC.
	expected := 5000 - c.CommandCount(dram.KindRefresh)*int64(cfg.DRAM.Timing.TRFC)
	got := c.VClock()
	if got < expected-20 || got > expected+20 {
		t.Errorf("vclock = %d, want about %d", got, expected)
	}
}

func TestRefreshDrainsOpenBanks(t *testing.T) {
	cfg := linearConfig(t, 1)
	cfg.DisableRefresh = false
	cfg.DRAM.Timing.TREF = 200
	cfg.RowPolicy = OpenRow // rows stay open; refresh must force-close
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	c.Accept(0, addr(0, 1, 0), false, 0)
	for now := int64(0); now < 2000; now++ {
		c.Tick(now)
	}
	if c.CommandCount(dram.KindRefresh) == 0 {
		t.Fatal("refresh never issued with an open row")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0)
	if _, err := New(bad, core.NewFRFCFS()); err == nil {
		t.Error("accepted 0 threads")
	}
	bad = DefaultConfig(1)
	bad.ReadEntriesPerThread = 0
	if _, err := New(bad, core.NewFRFCFS()); err == nil {
		t.Error("accepted 0 read entries")
	}
	bad = DefaultConfig(1)
	bad.WriteEntriesPerThread = 0
	if _, err := New(bad, core.NewFRFCFS()); err == nil {
		t.Error("accepted 0 write entries")
	}
	bad = DefaultConfig(1)
	bad.DRAM.Timing.TCL = 0
	if _, err := New(bad, core.NewFRFCFS()); err == nil {
		t.Error("accepted invalid DRAM timing")
	}
	// The size bounds are inclusive.
	edge := DefaultConfig(1)
	edge.Channels = MaxChannels
	edge.DRAM.Ranks, edge.DRAM.BanksPerRank = 4, MaxBanksPerChannel/4
	edge.ReadEntriesPerThread, edge.WriteEntriesPerThread = MaxEntriesPerThread, MaxEntriesPerThread
	if err := edge.Validate(); err != nil {
		t.Errorf("refused a configuration at every size bound: %v", err)
	}
}

func TestRowPolicyString(t *testing.T) {
	if ClosedRow.String() != "closed" || OpenRow.String() != "open" {
		t.Error("RowPolicy strings")
	}
}

func TestReadLatencyAccounting(t *testing.T) {
	c := newCtrl(t, 1, core.NewFRFCFS())
	c.OnReadDone = func(r *core.Request, now int64) {}
	c.Accept(0, addr(0, 1, 0), false, 0)
	for now := int64(0); now < 100; now++ {
		c.Tick(now)
	}
	st := c.Stats(0)
	if st.ReadsDone != 1 {
		t.Fatal("read incomplete")
	}
	tt := dram.DDR2800()
	min := float64(tt.TRCD + tt.TCL + tt.BL2)
	if got := st.AvgReadLatency(); got < min || got > min+4 {
		t.Errorf("latency = %v, want about %v", got, min)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		shares := []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}}
		c := newCtrl(t, 2, core.NewFQVFTF(shares, 8, dram.DDR2800()))
		seed := uint64(12345)
		for now := int64(0); now < 3000; now++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			th := int(seed >> 62 & 1)
			if seed%3 == 0 {
				c.Accept(th, uint64(seed>>16)%100000, seed%5 == 0, now)
			}
			c.Tick(now)
		}
		return c.Stats(0).ReadsDone + c.Stats(1).ReadsDone, c.Channel().DataBusBusyCycles()
	}
	r1, b1 := run()
	r2, b2 := run()
	if r1 != r2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", r1, b1, r2, b2)
	}
}
