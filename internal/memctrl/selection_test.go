package memctrl

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
)

// This file holds the bank scheduler's selection to a deliberately plain
// one: no picks, no thread queues, no wake lists. It is written from the
// rules, not from bankSchedule:
//
//   - PAPER.md / paper §3.2: a bank scheduler offers the channel
//     scheduler one command; ready commands come first, then CAS over
//     RAS, then the policy's key (earliest virtual finish time), then
//     arrival, then ID.
//   - paper §3.3 and core.RuleFQ: that first-ready order holds while the
//     bank is closed or was activated fewer than x cycles ago; from then
//     on the bank selects the smallest key and waits for it.
//   - core.RuleStrict: always the smallest key, waited for.
//
// The model's queue is its own too: it listens to the event stream.

// nextCmdFor returns the next SDRAM command required to service r.
func nextCmdFor(r *core.Request, state core.BankState) dram.Kind {
	switch state {
	case core.BankConflict:
		return dram.KindPrecharge
	case core.BankClosed:
		return dram.KindActivate
	default:
		if r.IsWrite {
			return dram.KindWrite
		}
		return dram.KindRead
	}
}

// queueMirror keeps every bank's waiting requests, from the event
// stream alone: queued by OnAccept, gone after their CAS.
type queueMirror struct {
	nopObserver
	banks   [][]*core.Request
	lastAcc *core.Request
	cmds    []audit.Cmd // the commands the current TickEnd issued
}

func (m *queueMirror) OnAccept(r *core.Request, _ int64) {
	m.banks[r.GlobalBank] = append(m.banks[r.GlobalBank], r)
	m.lastAcc = r
}

func (m *queueMirror) AfterIssue(cmd audit.Cmd, _ int64) {
	m.cmds = append(m.cmds, cmd)
	if cmd.Kind != dram.KindRead && cmd.Kind != dram.KindWrite {
		return
	}
	q := m.banks[cmd.FlatBank]
	for i, r := range q {
		if r == cmd.Req {
			m.banks[cmd.FlatBank] = append(q[:i], q[i+1:]...)
			return
		}
	}
	panic("mirror: CAS for a request that never arrived")
}

// bankOffer is what one bank examination must produce.
type bankOffer struct {
	ok       bool
	slot     int32
	kind     dram.Kind
	key      int64
	inverted bool
	wake     int64
	quiet    int64
}

// naiveBank examines bank b the slow way.
func naiveBank(c *Controller, waiting []*core.Request, chIdx, b int, now int64) bankOffer {
	ch := c.chans[chIdx]
	lb := b % c.banksPerChan
	openRow, open := ch.BankOpen(lb)
	draining := c.refreshWanted[chIdx]
	if len(waiting) == 0 {
		// An idle open row is closed under the closed-row policy, and
		// before a refresh under either.
		if !open || (c.cfg.RowPolicy != ClosedRow && !draining) {
			return bankOffer{wake: Forever, quiet: Forever}
		}
		if e := ch.EarliestIssue(dram.KindPrecharge, lb); e > now {
			return bankOffer{wake: e, quiet: e}
		}
		return bankOffer{ok: true, slot: noSlot, kind: dram.KindPrecharge, key: 1 << 62, wake: now, quiet: now}
	}
	type entry struct {
		r     *core.Request
		kind  dram.Kind
		key   int64
		early int64
	}
	es := make([]entry, len(waiting))
	firstEarly := Forever
	for i, r := range waiting {
		state := core.BankHit
		switch {
		case !open:
			state = core.BankClosed
		case r.Row != openRow:
			state = core.BankConflict
		}
		kind := nextCmdFor(r, state)
		es[i] = entry{r, kind, core.KeyOf(c.policy, r, state), ch.EarliestIssue(kind, lb)}
		firstEarly = min(firstEarly, es[i].early)
	}
	byKey := func(x, y *entry) bool {
		if x.key != y.key {
			return x.key < y.key
		}
		if x.r.Arrival != y.r.Arrival {
			return x.r.Arrival < y.r.Arrival
		}
		return x.r.ID < y.r.ID
	}
	isCAS := func(e *entry) bool { return e.kind == dram.KindRead || e.kind == dram.KindWrite }

	rule, x := c.policy.BankRule()
	keyOrderFrom := Forever // first cycle the bank selects by key alone
	switch {
	case rule == core.RuleStrict:
		keyOrderFrom = 0
	case rule == core.RuleFQ && open:
		keyOrderFrom = ch.LastActivate(lb) + x
	}
	var out bankOffer
	if now >= keyOrderFrom {
		sort.Slice(es, func(i, j int) bool { return byKey(&es[i], &es[j]) })
		out.wake = es[0].early // the bank waits for this one request
	} else {
		sort.Slice(es, func(i, j int) bool {
			x, y := &es[i], &es[j]
			if rx, ry := x.early <= now, y.early <= now; rx != ry {
				return rx
			}
			if cx, cy := isCAS(x), isCAS(y); cx != cy {
				return cx
			}
			return byKey(x, y)
		})
		// Nothing can become ready before the first request does, unless
		// the bank will by then be holding for one request by key.
		out.wake = firstEarly
		if firstEarly < keyOrderFrom {
			out.quiet = firstEarly
		}
	}
	sel := &es[0]
	if draining && sel.kind == dram.KindActivate {
		// No row is opened ahead of a refresh; only the refresh's end
		// revives the bank.
		return bankOffer{wake: Forever}
	}
	if sel.early > now {
		return out
	}
	out.ok, out.wake = true, now
	out.slot, out.kind, out.key = sel.r.Slot, sel.kind, sel.key
	if isCAS(sel) {
		for i := range es {
			out.inverted = out.inverted || es[i].key < sel.key
		}
	}
	return out
}

// Planted bugs for selectionRun: the pick invalidation whose loss each
// one simulates by marking valid again the picks it cleared.
const (
	plantNone   = iota
	plantAccept // Accept's clear of its own queue
	plantThread // a request command's clear of its thread on the channel
	plantBank   // an activate's or precharge's clear of its bank
)

// selectionRun drives the controller for the given number of cycles
// with TestStressInvariants' traffic, drawn from seed, and compares
// every bank examination against naiveBank (with cfg.Interference the
// tracker's visit of every valid queue is on the path too). It returns
// the number of examinations checked and the first disagreement ("" if
// none), at which it stops.
func selectionRun(t *testing.T, cfg Config, policy core.Policy, plant int, seed uint64, cycles int64) (checked int, diff string) {
	t.Helper()
	c, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	c.OnReadDone = func(*core.Request, int64) {}
	m := &queueMirror{banks: make([][]*core.Request, cfg.TotalBanks())}
	c.obs = append(c.obs, m)
	nt := cfg.Threads

	// live reports, per (bank, thread) queue, whether its picks are
	// valid; restore undoes a clear for a queue that was.
	live := func() []bool {
		if plant == plantNone {
			return nil
		}
		out := make([]bool, len(c.picks))
		for q := range c.picks {
			out[q] = c.picks[q].valid
		}
		return out
	}
	restore := func(was []bool, b, th int) {
		q := b*nt + th
		c.picks[q].valid = c.picks[q].valid || was[q]
	}

	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	wakeBefore := make([]int64, len(c.bankWake))
	for now := int64(0); now < cycles; now++ {
		if x := next(); x%3 != 0 {
			was := live()
			if c.Accept(int(x>>20%uint64(nt)), (x>>8)%500_000, x%5 == 0, now) && plant == plantAccept {
				restore(was, m.lastAcc.GlobalBank, m.lastAcc.Thread)
			}
		}
		if ss, ok := policy.(core.ShareSetter); ok && now%10_000 == 7_000 {
			ss.SetThreadShare(int(now/10_000)%nt, core.Share{Num: 1, Den: 3})
			c.InvalidateScheduling()
		}
		if !c.TickBegin(now) {
			continue
		}
		for chIdx, ch := range c.chans {
			copy(wakeBefore, c.bankWake)
			allWoken := now >= c.nextRefreshAt[chIdx] && !c.refreshWanted[chIdx]
			c.ScheduleChannel(chIdx, now)
			if c.dec[chIdx].kind == decRefresh || ch.InRefresh(now) {
				continue // no bank was examined
			}
			for b := chIdx * c.banksPerChan; b < (chIdx+1)*c.banksPerChan; b++ {
				if wakeBefore[b] > now && !allWoken {
					continue // dormant
				}
				want := naiveBank(c, m.banks[b], chIdx, b, now)
				got := bankOffer{slot: noSlot, wake: c.bankWake[b], quiet: c.bankQuiet[b]}
				if !want.ok {
					want.slot = noSlot
				}
				for _, cand := range c.cands {
					if cand.bank == b {
						got.ok, got.slot, got.kind, got.key, got.inverted = true, cand.slot, cand.kind, cand.key, cand.inverted
					}
				}
				checked++
				if got != want {
					return checked, fmt.Sprintf("cycle %d bank %d (%d waiting): controller %+v, full walk %+v", now, b, len(m.banks[b]), got, want)
				}
			}
		}
		was := live()
		m.cmds = m.cmds[:0]
		c.TickEnd(now)
		// A channel issues at most one command a cycle, so the queue of
		// the issuing thread on an activated or precharged bank is the
		// only one both clears cover; neither plant restores it.
		for _, cmd := range m.cmds {
			row := cmd.Kind == dram.KindActivate || cmd.Kind == dram.KindPrecharge
			switch {
			case plant == plantThread && cmd.Req != nil:
				lo := cmd.FlatBank / c.banksPerChan * c.banksPerChan
				for b := lo; b < lo+c.banksPerChan; b++ {
					if !row || b != cmd.FlatBank {
						restore(was, b, cmd.Req.Thread)
					}
				}
			case plant == plantBank && row:
				for th := 0; th < nt; th++ {
					if cmd.Req == nil || th != cmd.Req.Thread {
						restore(was, cmd.FlatBank, th)
					}
				}
			}
		}
	}
	return checked, ""
}

// selectionPolicies are the nine policy constructors, in a fixed order
// so that a fuzz input can name one by index.
var selectionPolicies = []struct {
	name string
	mk   func(shares []core.Share, banks int) core.Policy
}{
	{"FCFS", func([]core.Share, int) core.Policy { return core.NewFCFS() }},
	{"FR-FCFS", func([]core.Share, int) core.Policy { return core.NewFRFCFS() }},
	{"FR-VFTF", func(s []core.Share, n int) core.Policy { return core.NewFRVFTF(s, n, dram.DDR2800()) }},
	{"FQ-VFTF", func(s []core.Share, n int) core.Policy { return core.NewFQVFTF(s, n, dram.DDR2800()) }},
	{"FR-VSTF", func(s []core.Share, n int) core.Policy { return core.NewFRVSTF(s, n, dram.DDR2800()) }},
	{"FR-VFTF-arrival", func(s []core.Share, n int) core.Policy { return core.NewFRVFTFArrival(s, n, dram.DDR2800()) }},
	{"BLISS", func(s []core.Share, _ int) core.Policy { return core.NewBLISS(len(s)) }},
	{"SLOW-FAIR", func(s []core.Share, _ int) core.Policy { return core.NewSlowFair(len(s), dram.DDR2800()) }},
	{"BANK-BW", func(s []core.Share, n int) core.Policy { return core.NewBankBW(len(s), n) }},
}

// selectionShares gives the last of n threads half the memory system and
// the others a quarter each (stressShares for three).
func selectionShares(n int) []core.Share {
	s := make([]core.Share, n)
	for i := range s {
		s[i] = core.Share{Num: 1, Den: 4}
	}
	s[n-1] = core.Share{Num: 1, Den: 2}
	return s
}

// fallingKeys declares, through core.FRFCFS, that its keys follow
// arrival, and ranks the youngest request first: the head-of-group walk
// looks only where the answer is not.
type fallingKeys struct{ core.FRFCFS }

func (*fallingKeys) Name() string { return "falling-keys" }

func (*fallingKeys) Key(r *core.Request, _ core.BankState) int64 { return -r.Arrival }

// TestBankSelectionMatchesFullWalk: on every bank examination of a
// random run the controller's offer, wake and quiet bound equal the
// naive model's, for every policy, both row policies, one and two
// channels, frequent refresh, mid-run share changes, pooled buffers and
// interference attribution; and the comparison notices, with attribution
// on or off, when the Accept, thread or bank clear of the picks is lost,
// and when a policy falsely declares that its keys follow arrival.
func TestBankSelectionMatchesFullWalk(t *testing.T) {
	shares := selectionShares(3)
	config := func(channels int, row RowPolicy, shared, intf bool) Config {
		cfg := DefaultConfig(3)
		cfg.Channels = channels
		cfg.RowPolicy = row
		cfg.SharedBuffers = shared
		cfg.Interference = intf
		cfg.DRAM.Timing.TREF = 3000 // exercise refresh frequently
		return cfg
	}
	for _, sp := range selectionPolicies {
		for _, channels := range []int{1, 2} {
			for _, row := range []RowPolicy{ClosedRow, OpenRow} {
				// Pooled buffers on one row of the matrix: where a thread's
				// queue on a bank can outgrow its own partition. Attribution
				// on the two rows that cover both channel counts and both
				// row policies: the tracker visits every queue, valid or not.
				shared := channels == 1 && row == ClosedRow
				intf := (channels == 2) == (row == ClosedRow)
				cfg := config(channels, row, shared, intf)
				checked, diff := selectionRun(t, cfg, sp.mk(shares, cfg.TotalBanks()), plantNone, 42, 30_000)
				if diff != "" {
					t.Errorf("%s/%dch/%v/shared=%v/intf=%v: %s", sp.name, channels, row, shared, intf, diff)
				} else if checked < 10_000 {
					t.Errorf("%s/%dch/%v/shared=%v/intf=%v: only %d examinations checked", sp.name, channels, row, shared, intf, checked)
				}
			}
		}
	}
	for plant, what := range map[int]string{plantAccept: "Accept", plantThread: "a command of their thread", plantBank: "an activate or precharge of their bank"} {
		for _, intf := range []bool{false, true} {
			cfg := config(1, ClosedRow, false, intf)
			for _, sp := range selectionPolicies {
				if sp.name != "FR-FCFS" && sp.name != "FQ-VFTF" {
					continue
				}
				if _, diff := selectionRun(t, cfg, sp.mk(shares, cfg.TotalBanks()), plant, 42, 30_000); diff == "" {
					t.Errorf("%s/intf=%v: picks kept across %s went unnoticed", sp.name, intf, what)
				}
			}
		}
	}
	cfg := config(1, ClosedRow, false, false)
	if _, diff := selectionRun(t, cfg, &fallingKeys{}, plantNone, 42, 30_000); diff == "" {
		t.Error("a policy whose keys fall with arrival, declared to follow it, went unnoticed")
	}
}

// FuzzBankSelection runs selectionRun's comparison on machines drawn from
// the input: the traffic seed, one to four threads, the buffer depth,
// one, two or four channels, the row policy, pooled buffers, the refresh
// interval, any of the nine policies and interference attribution, for
// 8,000 cycles each.
func FuzzBankSelection(f *testing.F) {
	f.Add(uint64(42), uint8(2), uint8(15), uint8(0), false, false, uint16(2000), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, threads, entries, channels uint8, openRow, pooled bool, tref uint16, policy uint8, intf bool) {
		cfg := DefaultConfig(1 + int(threads%4))
		cfg.Channels = []int{1, 2, 4}[channels%3]
		cfg.ReadEntriesPerThread = 1 + int(entries%32)
		cfg.WriteEntriesPerThread = 1 + int(entries%16)
		if openRow {
			cfg.RowPolicy = OpenRow
		}
		cfg.SharedBuffers = pooled
		cfg.Interference = intf
		cfg.DRAM.Timing.TREF = 1_000 + int(tref%8_000)
		sp := selectionPolicies[int(policy)%len(selectionPolicies)]
		if _, diff := selectionRun(t, cfg, sp.mk(selectionShares(cfg.Threads), cfg.TotalBanks()), plantNone, seed, 8_000); diff != "" {
			t.Fatalf("%s, %d threads, %d/%d entries, %d channels, %v row, pooled %v, tREF %d, attribution %v: %s",
				sp.name, cfg.Threads, cfg.ReadEntriesPerThread, cfg.WriteEntriesPerThread, cfg.Channels, cfg.RowPolicy, pooled, cfg.DRAM.Timing.TREF, intf, diff)
		}
	})
}
