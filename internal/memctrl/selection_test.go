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
// one: no key cache, no picks, no thread queues, no wake lists. It is
// written from the rules, not from bankSchedule:
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
	lastCAS []*core.Request // requests whose CAS the current TickEnd issued
}

func (m *queueMirror) OnAccept(r *core.Request, _ int64) {
	m.banks[r.GlobalBank] = append(m.banks[r.GlobalBank], r)
	m.lastAcc = r
}

func (m *queueMirror) AfterIssue(cmd audit.Cmd, _ int64) {
	if cmd.Kind != dram.KindRead && cmd.Kind != dram.KindWrite {
		return
	}
	q := m.banks[cmd.FlatBank]
	for i, r := range q {
		if r == cmd.Req {
			m.banks[cmd.FlatBank] = append(q[:i], q[i+1:]...)
			m.lastCAS = append(m.lastCAS, r)
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

// Planted bugs for runSelection: the invalidation whose loss each one
// simulates by re-stamping the pick set it dropped.
const (
	plantNone = iota
	plantAccept
	plantRemove
)

// selectionRun drives the controller with TestStressInvariants' traffic
// and compares every bank examination against naiveBank. It returns the
// number of examinations checked and the first disagreement ("" if
// none), at which it stops.
func selectionRun(t *testing.T, cfg Config, policy core.Policy, plant int) (checked int, diff string) {
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
	// stamped valid; restamp undoes a drop for the queues that were.
	live := func() []bool {
		if plant == plantNone {
			return nil
		}
		out := make([]bool, len(c.picks))
		for q := range c.picks {
			b, th := q/nt, q%nt
			out[q] = c.picks[q].stamp == c.thrEpoch[b/c.banksPerChan*nt+th]+c.bankEpoch[b]
		}
		return out
	}
	restamp := func(was []bool, r *core.Request) {
		q := r.GlobalBank*nt + r.Thread
		if was[q] && c.picks[q].stamp == 0 {
			c.picks[q].stamp = c.thrEpoch[r.Channel*nt+r.Thread] + c.bankEpoch[r.GlobalBank]
		}
	}

	seed := uint64(42)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	wakeBefore := make([]int64, len(c.bankWake))
	for now := int64(0); now < 30_000; now++ {
		if x := next(); x%3 != 0 {
			was := live()
			if c.Accept(int(x>>20%3), (x>>8)%500_000, x%5 == 0, now) && plant == plantAccept {
				restamp(was, m.lastAcc)
			}
		}
		if ss, ok := policy.(core.ShareSetter); ok && now%10_000 == 7_000 {
			ss.SetThreadShare(int(now/10_000), core.Share{Num: 1, Den: 3})
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
		m.lastCAS = m.lastCAS[:0]
		c.TickEnd(now)
		if plant == plantRemove {
			for _, r := range m.lastCAS {
				restamp(was, r)
			}
		}
	}
	return checked, ""
}

// TestBankSelectionMatchesFullWalk: on every bank examination of a
// random run the controller's offer, wake and quiet bound equal the
// naive model's, for every policy, both row policies, one and two
// channels, frequent refresh, mid-run share changes and pooled buffers;
// and the comparison notices when either pick invalidation is lost.
func TestBankSelectionMatchesFullWalk(t *testing.T) {
	shares := []core.Share{{Num: 1, Den: 4}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	tt := dram.DDR2800()
	policies := map[string]func(banks int) core.Policy{
		"FCFS":            func(int) core.Policy { return core.NewFCFS() },
		"FR-FCFS":         func(int) core.Policy { return core.NewFRFCFS() },
		"FR-VFTF":         func(n int) core.Policy { return core.NewFRVFTF(shares, n, tt) },
		"FQ-VFTF":         func(n int) core.Policy { return core.NewFQVFTF(shares, n, tt) },
		"FR-VSTF":         func(n int) core.Policy { return core.NewFRVSTF(shares, n, tt) },
		"FR-VFTF-arrival": func(n int) core.Policy { return core.NewFRVFTFArrival(shares, n, tt) },
		"BLISS":           func(int) core.Policy { return core.NewBLISS(3) },
		"SLOW-FAIR":       func(int) core.Policy { return core.NewSlowFair(3, tt) },
		"BANK-BW":         func(n int) core.Policy { return core.NewBankBW(3, n) },
	}
	config := func(channels int, row RowPolicy, shared bool) Config {
		cfg := DefaultConfig(3)
		cfg.Channels = channels
		cfg.RowPolicy = row
		cfg.SharedBuffers = shared
		cfg.DRAM.Timing.TREF = 3000 // exercise refresh frequently
		return cfg
	}
	for name, mk := range policies {
		for _, channels := range []int{1, 2} {
			for _, row := range []RowPolicy{ClosedRow, OpenRow} {
				// Pooled buffers on one row of the matrix: where a thread's
				// queue on a bank can outgrow its own partition.
				shared := channels == 1 && row == ClosedRow
				cfg := config(channels, row, shared)
				checked, diff := selectionRun(t, cfg, mk(cfg.TotalBanks()), plantNone)
				if diff != "" {
					t.Errorf("%s/%dch/%v/shared=%v: %s", name, channels, row, shared, diff)
				} else if checked < 10_000 {
					t.Errorf("%s/%dch/%v/shared=%v: only %d examinations checked", name, channels, row, shared, checked)
				}
			}
		}
	}
	for plant, what := range map[int]string{plantAccept: "Accept", plantRemove: "removePending"} {
		for _, name := range []string{"FR-FCFS", "FQ-VFTF"} {
			cfg := config(1, ClosedRow, false)
			if _, diff := selectionRun(t, cfg, policies[name](cfg.TotalBanks()), plant); diff == "" {
				t.Errorf("%s: picks kept across %s went unnoticed", name, what)
			}
		}
	}
}
