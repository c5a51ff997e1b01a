package core

import (
	"fmt"

	"repro/internal/dram"
)

// Post-2006 scheduler lineage: the paper's FQ-VFTF is one point in a
// long line of fairness-oriented memory schedulers. This file implements
// three successors the arena harness (internal/exp) races against it:
//
//   - BLISS (Subramanian et al.): interval-based blacklisting of
//     threads that stream consecutive requests.
//   - SLOW-FAIR (after the slowdown-fairness controllers of Mutlu &
//     Moscibroda and the MemGuard lineage): estimate each thread's
//     slowdown as shared-time / alone-time and boost the most slowed
//     thread, using the VTMS private-system service model with phi = 1
//     as the alone-time estimator.
//   - BANK-BW (Yun et al.): per-thread per-bank bandwidth budgets with
//     periodic window refill.
//
// All three are interval-based: their Key-feeding state changes only on
// window boundaries. Mutating that state from OnIssue would break the
// key purity contract (OnIssue for thread t on channel c may only move
// thread t's keys on channel c), so the periodic work runs through an
// explicit tick entry point, PolicyTicker, that the controller drives
// and follows with a full scheduling invalidation.

// PolicyTicker is implemented by policies with interval-based state
// (blacklists, budgets, boost targets). The controller calls Tick on
// every cycle boundary at which now >= NextTickAt() — its event-driven
// fast path clamps the next-event estimate to NextTickAt(), so tick
// boundaries are never skipped — and invalidates all cached scheduling
// decisions when Tick reports that Key-feeding state changed. Tick-side
// mutation plus invalidation is the only sanctioned way for a policy to
// move not-yet-frozen keys outside OnIssue and the reassignment entry
// points (see the key purity contract in Policy).
type PolicyTicker interface {
	// NextTickAt returns the cycle of the next window boundary. It must
	// be strictly greater than the cycle of the last Tick call.
	NextTickAt() int64

	// Tick runs the window-boundary work and reports whether any state
	// feeding Key changed (true makes the controller invalidate every
	// cached scheduling decision).
	Tick(now int64) bool
}

// ticker is the shared window bookkeeping. lastTick/nextTick are
// serialized with each policy's state; the audit layer cross-checks
// next == last + interval on every controller tick.
type ticker struct {
	interval int64
	lastTick int64
	nextTick int64
}

func newTicker(interval int64) ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("core: invalid tick interval %d", interval))
	}
	return ticker{interval: interval, nextTick: interval}
}

// advance records a tick at now and moves the next boundary past it.
// The loop is defensive: boundaries are never skipped by the
// controller, so it executes exactly once.
func (tk *ticker) advance(now int64) {
	tk.lastTick = now
	for tk.nextTick <= now {
		tk.nextTick += tk.interval
	}
}

// NextTickAt implements PolicyTicker.
func (tk *ticker) NextTickAt() int64 { return tk.nextTick }

// LastTickAt returns the cycle of the most recent tick (0 before the
// first); the audit layer uses it to pin state changes to boundaries.
func (tk *ticker) LastTickAt() int64 { return tk.lastTick }

// TickInterval returns the window length in cycles.
func (tk *ticker) TickInterval() int64 { return tk.interval }

// arenaPenalty separates deprioritized requests from normal ones by
// more than any plausible arrival-time span, while leaving int64
// headroom for arrival + penalty arithmetic.
const arenaPenalty = int64(1) << 40

// ---------------------------------------------------------------------
// BLISS: blacklisting of streak-y threads
// ---------------------------------------------------------------------

// BLISS implements the Blacklisting memory scheduler: a thread that
// completes streakCap consecutive column accesses is marked, marks are
// promoted to the blacklist on the next window boundary, and every
// clearEvery-th boundary wipes the blacklist so no thread is penalized
// forever. Blacklisted threads' requests are deprioritized by a fixed
// penalty; within a priority class ordering stays FR-FCFS. BLISS is
// shareless: it implements neither ShareGetter nor ShareSetter, so the
// fairness monitor falls back to phi = 1/N.
type BLISS struct {
	ticker
	streakCap  int64
	clearEvery int64

	// blacklisted feeds Key and changes only inside Tick.
	blacklisted []bool
	// pendingMark stages OnIssue-side marks until the next boundary.
	pendingMark []bool

	lastThread int
	streak     int64
	ticks      int64
}

// Default BLISS parameters: a 1k-cycle marking window with the
// blacklist cleared every 10 windows, streak threshold 4 (the paper's
// "blacklisting threshold").
const (
	blissInterval   = 1_000
	blissClearEvery = 10
	blissStreakCap  = 4
)

// NewBLISS returns a BLISS scheduler for n threads.
func NewBLISS(n int) *BLISS {
	return &BLISS{
		ticker:      newTicker(blissInterval),
		streakCap:   blissStreakCap,
		clearEvery:  blissClearEvery,
		blacklisted: make([]bool, n),
		pendingMark: make([]bool, n),
		lastThread:  -1,
	}
}

// Name implements Policy.
func (*BLISS) Name() string { return "BLISS" }

// Key implements Policy: arrival order, pushed back by the blacklist
// penalty for marked threads.
func (p *BLISS) Key(r *Request, _ BankState) int64 {
	k := r.Arrival
	if p.blacklisted[r.Thread] {
		k += arenaPenalty
	}
	return k
}

// OnIssue implements Policy: update the consecutive-service streak on
// column accesses. Streak state and pending marks do not feed Key, so
// mutating them here moves no key; the blacklist itself moves only in
// Tick.
func (p *BLISS) OnIssue(r *Request, kind CmdKind) {
	if !kind.IsCAS() {
		return
	}
	if r.Thread == p.lastThread {
		p.streak++
	} else {
		p.lastThread = r.Thread
		p.streak = 1
	}
	if p.streak >= p.streakCap {
		p.pendingMark[r.Thread] = true
	}
}

// BankRule implements Policy.
func (*BLISS) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// KeysFollowArrival implements ArrivalMonotone: one thread's requests
// share its penalty.
func (*BLISS) KeysFollowArrival() bool { return true }

// Tick implements PolicyTicker: promote pending marks to the
// blacklist, and wipe everything on each clearEvery-th boundary.
func (p *BLISS) Tick(now int64) bool {
	p.advance(now)
	p.ticks++
	changed := false
	if p.ticks%p.clearEvery == 0 {
		for t := range p.blacklisted {
			if p.blacklisted[t] {
				changed = true
			}
			p.blacklisted[t] = false
			p.pendingMark[t] = false
		}
		return changed
	}
	for t, mark := range p.pendingMark {
		if mark && !p.blacklisted[t] {
			p.blacklisted[t] = true
			changed = true
		}
		p.pendingMark[t] = false
	}
	return changed
}

// Blacklisted reports whether a thread is currently blacklisted (for
// the audit layer and tests).
func (p *BLISS) Blacklisted(thread int) bool { return p.blacklisted[thread] }

// ---------------------------------------------------------------------
// SLOW-FAIR: slowdown-based fairness
// ---------------------------------------------------------------------

// SlowFair implements slowdown-based fairness: each thread's slowdown
// is shared_time / alone_time, where alone_time is estimated as the
// service its requests would need on a private memory system (the VTMS
// Table 3/4 service model at phi = 1). All threads share the same
// wall-clock window, so within one window the most slowed thread is the
// one that accumulated the least alone-service while still making
// progress; SlowFair boosts that thread for the next window when the
// imbalance exceeds 2x. Threads that accumulated nothing at all are
// not considered — an idle (non-memory-bound) thread is indistinguishable
// from a fully starved one by this estimator, a known limitation.
type SlowFair struct {
	ticker
	timing dram.Timing

	// boosted feeds Key and changes only inside Tick (-1 = none).
	boosted int

	// aloneServ accumulates each thread's unscaled private service in
	// OnIssue; prevAlone is the previous boundary's snapshot.
	aloneServ []int64
	prevAlone []int64
}

// slowFairInterval is the slowdown evaluation window.
const slowFairInterval = 10_000

// NewSlowFair returns a SLOW-FAIR scheduler for n threads over a
// memory system with timing t.
func NewSlowFair(n int, t dram.Timing) *SlowFair {
	return &SlowFair{
		ticker:    newTicker(slowFairInterval),
		timing:    t,
		boosted:   -1,
		aloneServ: make([]int64, n),
		prevAlone: make([]int64, n),
	}
}

// Name implements Policy.
func (*SlowFair) Name() string { return "SLOW-FAIR" }

// Key implements Policy: arrival order, pulled forward by the boost
// bonus for the max-slowdown thread.
func (p *SlowFair) Key(r *Request, _ BankState) int64 {
	k := r.Arrival
	if r.Thread == p.boosted {
		k -= arenaPenalty
	}
	return k
}

// OnIssue implements Policy: charge the command's private-system
// service time (Table 4 at phi = 1) to the thread's alone-time account.
// The accounts do not feed Key, so accumulating here moves no key; the
// boost target moves only in Tick.
func (p *SlowFair) OnIssue(r *Request, kind CmdKind) {
	pre, act, cas := p.timing.CmdBankService(r.IsWrite)
	switch kind {
	case CmdPrecharge:
		p.aloneServ[r.Thread] += int64(pre)
	case CmdActivate:
		p.aloneServ[r.Thread] += int64(act)
	case CmdRead, CmdWrite:
		p.aloneServ[r.Thread] += int64(cas) + int64(p.timing.ChannelService())
	}
}

// BankRule implements Policy.
func (*SlowFair) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// KeysFollowArrival implements ArrivalMonotone: one thread's requests
// share its boost.
func (*SlowFair) KeysFollowArrival() bool { return true }

// Tick implements PolicyTicker: snapshot the window's per-thread
// alone-service deltas and retarget the boost. Ties break to the lowest
// thread index, deterministically.
func (p *SlowFair) Tick(now int64) bool {
	p.advance(now)
	minT := -1
	var minD, maxD int64
	for t := range p.aloneServ {
		d := p.aloneServ[t] - p.prevAlone[t]
		p.prevAlone[t] = p.aloneServ[t]
		if d > 0 && (minT < 0 || d < minD) {
			minT, minD = t, d
		}
		if d > maxD {
			maxD = d
		}
	}
	boost := -1
	if minT >= 0 && maxD > 2*minD {
		boost = minT
	}
	if boost == p.boosted {
		return false
	}
	p.boosted = boost
	return true
}

// BoostedThread returns the currently boosted thread, -1 for none (for
// the audit layer and tests).
func (p *SlowFair) BoostedThread() int { return p.boosted }

// ---------------------------------------------------------------------
// BANK-BW: per-bank bandwidth regulation
// ---------------------------------------------------------------------

// BankBW implements per-thread per-bank bandwidth regulation: every
// thread holds a budget of column accesses per bank per window,
// decremented as its CAS commands issue and refilled to the quota on
// every boundary. A thread whose budget for a bank is exhausted has its
// requests to that bank deprioritized by a fixed penalty — regulation,
// not starvation: the scheduler stays work conserving, so an overdrawn
// thread still issues when nothing else is ready (the budget then goes
// negative, which the audit layer's accounting tolerates and tracks
// exactly).
type BankBW struct {
	ticker
	nbanks int
	quota  int64

	// budget[t*nbanks+b] feeds Key for thread t's requests on flat bank
	// b. OnIssue decrements the issuing thread's budget for the issuing
	// request's own bank — which only carries requests of the issuing
	// channel, so only that thread's keys on that channel can move — and
	// Tick refills all of it.
	budget []int64
}

// Default BANK-BW parameters: 8 column accesses per (thread, bank) per
// 5k-cycle window.
const (
	bankBWQuota    = 8
	bankBWInterval = 5_000
)

// NewBankBW returns a BANK-BW scheduler for n threads over nbanks flat
// banks.
func NewBankBW(n, nbanks int) *BankBW {
	p := &BankBW{
		ticker: newTicker(bankBWInterval),
		nbanks: nbanks,
		quota:  bankBWQuota,
		budget: make([]int64, n*nbanks),
	}
	for i := range p.budget {
		p.budget[i] = p.quota
	}
	return p
}

// Name implements Policy.
func (*BankBW) Name() string { return "BANK-BW" }

// Key implements Policy: arrival order, pushed back by the overdraft
// penalty when the thread's budget for the request's bank is spent.
func (p *BankBW) Key(r *Request, _ BankState) int64 {
	k := r.Arrival
	if p.budget[r.Thread*p.nbanks+r.GlobalBank] <= 0 {
		k += arenaPenalty
	}
	return k
}

// OnIssue implements Policy: spend budget on column accesses.
func (p *BankBW) OnIssue(r *Request, kind CmdKind) {
	if kind.IsCAS() {
		p.budget[r.Thread*p.nbanks+r.GlobalBank]--
	}
}

// BankRule implements Policy.
func (*BankBW) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// KeysFollowArrival implements ArrivalMonotone: one thread's requests to
// one bank share its budget.
func (*BankBW) KeysFollowArrival() bool { return true }

// Tick implements PolicyTicker: refill every budget to the quota. Key
// only reads the budget through the <= 0 threshold, so the refill moved
// keys exactly when some budget was spent to zero or below.
func (p *BankBW) Tick(now int64) bool {
	p.advance(now)
	changed := false
	for i := range p.budget {
		if p.budget[i] <= 0 {
			changed = true
		}
		p.budget[i] = p.quota
	}
	return changed
}

// BankBudget returns thread's remaining budget on flat bank b (for the
// audit layer and tests).
func (p *BankBW) BankBudget(thread, b int) int64 { return p.budget[thread*p.nbanks+b] }

// BudgetQuota returns the per-window budget quota (for the audit layer
// and tests).
func (p *BankBW) BudgetQuota() int64 { return p.quota }
