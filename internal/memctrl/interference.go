package memctrl

import (
	"fmt"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// Interference attribution (DESIGN §15): every cycle a request spends
// waiting in the controller is charged to exactly one exclusive cause
// and at most one aggressor thread, folding into a per-thread-pair
// matrix cycles[victim][aggressor] plus per-cause totals. The layer is
// observation-only — it reads the same DDR2 state the scheduler reads
// and never feeds back into a decision, so enabling it leaves every
// simulated result bit-identical — and it is conservative by
// construction: a request's attributed cycles always sum to exactly its
// measured queueing delay (arrival to CAS issue), an invariant the
// audit layer re-checks at every service start.
//
// The accounting protocol piggybacks on the bank scheduler's existing
// per-request examination loop (zero allocations in steady state):
//
//   - attrFrom[slot] is the cycle up to which the request's wait has
//     been attributed (exclusive). Accept sets it to the arrival cycle.
//   - While a request's next command cannot legally issue, examinations
//     do no accounting work at all: the wait accumulates silently. At
//     the ready transition (the first examination with the command
//     issuable) the whole span [attrFrom, now) is charged in one step —
//     the blocked prefix to the binding DDR2 constraint
//     (dram.BlockingCause names the resource that released last and the
//     thread whose earlier command set it), any ready remainder to the
//     scheduling policy — and attrFrom advances to now. Deferring to
//     the transition keeps the hot path O(ready requests) per cycle
//     instead of O(pending), and the charge is still well-defined after
//     release because BlockingCause is a pure max over device
//     timestamps, not a function of the probe cycle.
//   - Requests that were ready at now but were not issued are charged
//     one more cycle at tick end, to the thread whose command the
//     channel issued instead (or to refresh, or — when the bank is
//     holding for a not-yet-ready request under a strict key rule — to
//     the thread the bank is held for). attrFrom advances to now+1.
//   - The request that wins its CAS at cycle now was examined this very
//     cycle, so attrFrom == now and the charges already cover
//     [arrival, now) exactly: conservation is structural, not tuned.
//
// Charges made during a tick are staged and folded into the matrix at
// tick end; every charge is a sum, so the fold's order cannot matter.
//
// Half of the tracker (OnAccept, the service-start conservation check
// in BeforeIssue) listens on the event stream like any Observer. Its
// examination half (readyBase, exam, patchFallback, drain) is not an
// event and stays a direct call: it runs inside ScheduleChannel, which
// emits nothing, and the cube depends on which cycles banks are
// examined on.

// Attribution causes. Exclusive: each waited cycle lands in exactly one.
const (
	causeBankOther = iota // bank busy on another thread's request
	causeBankSelf         // bank busy on this request's own service
	causeBus              // shared data bus occupied
	causeTiming           // channel/rank spacing (tCCD, tWTR, tRRD)
	causeRefresh          // refresh window or pre-refresh drain
	causePolicy           // ready but scheduled behind someone else
	numCauses
)

var causeNames = [numCauses]string{
	"bank_other", "bank_self", "bus", "timing", "refresh", "policy",
}

// InterferenceCauses returns the cause column labels in matrix order.
func InterferenceCauses() []string { return append([]string(nil), causeNames[:]...) }

// InterferenceSnapshot is a point-in-time copy of the attribution
// state, in integers so downstream aggregation (fabric merge, arena
// reduction) is exact. Matrix[v][a] is the cycles victim thread v
// waited that were attributed to aggressor a; column Threads is the
// "no aggressor" bucket (refresh, cold timing constraints). Cube[v][a]
// breaks each cell down by cause, in Causes order.
type InterferenceSnapshot struct {
	Threads     int         `json:"threads"`
	Causes      []string    `json:"causes"`
	Matrix      [][]int64   `json:"matrix"`
	Cube        [][][]int64 `json:"cube"`
	CauseTotals []int64     `json:"cause_totals"`

	// Total is all attributed cycles; Cross the subset charged to a
	// real thread other than the victim (the interference proper).
	Total int64 `json:"total"`
	Cross int64 `json:"cross"`
}

// A tick's charges are staged in a copy of the cube plus the list of
// touched cells, so its many one-cycle charges to the same (victim,
// aggressor, cause) coalesce into one fold and one registry-counter
// bump at tick end.

// intfReady is a request that was ready at the current cycle; whether
// and to whom its current cycle is charged depends on the channel's
// decision, so the charge is resolved at tick end.
type intfReady struct {
	slot   int32
	victim int32
}

// intfHold records that the ready entries staged at index base and
// beyond belong to a bank the scheduler is holding for the given
// thread; drain consults it only on ticks where no command issued.
type intfHold struct {
	base   int32
	thread int32
}

// attrState packs a slot's two hot accounting fields on one cache
// line: the cycle up to which its wait is attributed (exclusive) and
// the cycles attributed so far.
type attrState struct {
	from  int64
	total int64
}

// intfTracker is the per-controller attribution state. Nil when the
// feature is off; every schedule-phase site guards on that single test.
type intfTracker struct {
	nopObserver
	aud *audit.Auditor // conservation is re-checked here when auditing

	threads int
	aggrs   int // threads + 1 ("none" bucket)

	// Per-slot accounting, indexed like the request arena. attrBy rows
	// survive until the slot is recycled so the trace writer can name a
	// completed request's top aggressor.
	attr   []attrState
	attrBy []int64 // nslots x aggrs

	// cube[victim][aggressor][cause], flattened. Mutated only by the
	// fold in drain; baseline is the copy taken when measurement begins,
	// so windowed results exclude warmup.
	cube     []int64
	baseline []int64

	// Staging: stage is cube-shaped and touched lists its nonzero cells.
	// ready[ch] and holds[ch] are per channel because drain resolves
	// them against that channel's decision. polCnt is drain's per-victim
	// scratch.
	stage   []int64
	touched []int32
	ready   [][]intfReady
	holds   [][]intfHold
	polCnt  []int64

	// Registry mirrors (nil without a registry): real counters bumped
	// at the TickEnd fold so the epoch sampler sees counter deltas.
	pairCtr  []*metrics.Counter // threads x aggrs
	causeCtr [numCauses]*metrics.Counter

	// published is the snapshot served to concurrent readers (the
	// telemetry server); refreshed from the cube on the simulation
	// goroutine via publish().
	mu        sync.Mutex
	published InterferenceSnapshot
	hasPub    bool
}

func newIntfTracker(c *Controller, reg *metrics.Registry) *intfTracker {
	threads := c.cfg.Threads
	aggrs := threads + 1
	nslots := len(c.arena)
	nch := len(c.chans)
	cells := threads * aggrs * numCauses
	// Sized to the worst case so the steady state is allocation-free.
	t := &intfTracker{
		aud:      c.aud,
		threads:  threads,
		aggrs:    aggrs,
		attr:     make([]attrState, nslots),
		attrBy:   make([]int64, nslots*aggrs),
		cube:     make([]int64, cells),
		baseline: make([]int64, cells),
		stage:    make([]int64, cells),
		touched:  make([]int32, 0, cells),
		ready:    make([][]intfReady, nch),
		holds:    make([][]intfHold, nch),
		polCnt:   make([]int64, threads),
	}
	for i := range t.ready {
		t.ready[i] = make([]intfReady, 0, nslots+4)
		t.holds[i] = make([]intfHold, 0, c.cfg.DRAM.Ranks*c.cfg.DRAM.BanksPerRank+1)
	}
	if reg != nil {
		t.pairCtr = make([]*metrics.Counter, threads*aggrs)
		for v := 0; v < threads; v++ {
			for a := 0; a < aggrs; a++ {
				name := fmt.Sprintf("interference.pair.v%d.a%d", v, a)
				if a == threads {
					name = fmt.Sprintf("interference.pair.v%d.anone", v)
				}
				t.pairCtr[v*aggrs+a] = reg.Counter(name)
			}
		}
		for i := range t.causeCtr {
			t.causeCtr[i] = reg.Counter("interference.cause." + causeNames[i])
		}
	}
	return t
}

func (t *intfTracker) cubeIdx(victim, aggr, cause int) int {
	return (victim*t.aggrs+aggr)*numCauses + cause
}

// OnAccept initializes a slot's accounting at its arrival cycle.
func (t *intfTracker) OnAccept(r *core.Request, now int64) {
	slot := int(r.Slot)
	t.attr[slot] = attrState{from: now}
	clear(t.attrBy[slot*t.aggrs : (slot+1)*t.aggrs])
}

// classify maps a binding DDR2 constraint to an attribution cause and
// aggressor column.
func (t *intfTracker) classify(victim int, bc dram.BlockCause, th int) (cause, aggr int) {
	none := t.threads
	switch bc {
	case dram.BlockRefresh:
		return causeRefresh, none
	case dram.BlockBank:
		switch {
		case th == victim:
			return causeBankSelf, victim
		case th >= 0:
			return causeBankOther, th
		default:
			return causeBankOther, none
		}
	case dram.BlockBus:
		if th >= 0 {
			return causeBus, th
		}
		return causeBus, none
	default: // BlockChan, BlockRank, BlockNone
		return causeTiming, none
	}
}

// charge attributes cycles to (victim, aggr, cause) for a slot: the
// per-slot totals are updated immediately, the matrix contribution is
// staged until the tick's fold.
func (t *intfTracker) charge(slot int32, victim, aggr, cause int, cycles int64) {
	t.attr[slot].total += cycles
	t.attrBy[int(slot)*t.aggrs+aggr] += cycles
	t.stageAdd((victim*t.aggrs+aggr)*numCauses+cause, cycles)
}

// stageAdd adds cycles to one staged-cube cell, tracking first touches.
func (t *intfTracker) stageAdd(idx int, cycles int64) {
	if t.stage[idx] == 0 {
		t.touched = append(t.touched, int32(idx))
	}
	t.stage[idx] += cycles
}

// exam attributes a request's wait and stages the request for the
// tick-end charge. bankSchedule calls it only for requests whose next
// command is issuable (early <= now): still-blocked requests cost a
// single comparison at the call site — their accumulating wait is
// charged in one step at the ready transition (see the protocol
// comment above).
func (t *intfTracker) exam(ch *dram.Channel, chIdx int, slot int32, victim int, kind dram.Kind, lb int, early, now int64) {
	f := t.attr[slot].from
	if f < now {
		blockedEnd := early
		if blockedEnd < f {
			blockedEnd = f
		}
		if blockedEnd > f {
			_, bc, th := ch.BlockingCause(kind, lb)
			cause, aggr := t.classify(victim, bc, th)
			t.charge(slot, victim, aggr, cause, blockedEnd-f)
		}
		if now > blockedEnd {
			// Ready cycles no examination charged (the span since the
			// command became issuable, plus any invalidation gap).
			// Structural conservation: charge them to the policy with no
			// aggressor rather than lose them.
			t.charge(slot, victim, t.threads, causePolicy, now-blockedEnd)
		}
		t.attr[slot].from = now
	}
	t.ready[chIdx] = append(t.ready[chIdx], intfReady{
		slot: slot, victim: int32(victim),
	})
}

// patchFallback records the hold-for thread of the ready entries a
// bank appended this cycle, once the bank's key-selected request is
// known (entries [base:] belong to the bank just scheduled).
func (t *intfTracker) patchFallback(chIdx, base, thread int) {
	if base < len(t.ready[chIdx]) {
		t.holds[chIdx] = append(t.holds[chIdx], intfHold{
			base: int32(base), thread: int32(thread),
		})
	}
}

// readyBase returns the staging mark patchFallback records against.
func (t *intfTracker) readyBase(chIdx int) int { return len(t.ready[chIdx]) }

// drain resolves the current-cycle charge for a channel's ready
// requests against the channel's decision and folds everything staged
// so far into the matrix and its registry mirrors, so once TickEnd has
// drained the last channel nothing stays staged. Called from TickEnd for
// each channel, after the decision is applied and before it is cleared.
func (t *intfTracker) drain(c *Controller, chIdx int, d *decision, now int64) {
	ready := t.ready[chIdx]
	if len(ready) > 0 {
		switch {
		case d.kind == decCmd:
			// Skipped cycles charged to the thread the channel served
			// instead; the winner's own cycle is its service start (CAS)
			// or progress (ACT/PRE), not a wait. One (victim, winner,
			// policy) cell per victim: count, then fold once.
			issued := d.cand.slot
			winner := t.threads // "none": an idle-close precharge won
			if issued != noSlot {
				winner = c.arena[issued].Thread
			}
			for i := range ready {
				e := &ready[i]
				if e.slot == issued {
					continue
				}
				a := &t.attr[e.slot]
				a.total++
				a.from = now + 1
				t.attrBy[int(e.slot)*t.aggrs+winner]++
				t.polCnt[e.victim]++
			}
			for v, n := range t.polCnt {
				if n != 0 {
					t.polCnt[v] = 0
					t.stageAdd((v*t.aggrs+winner)*numCauses+causePolicy, n)
				}
			}
		case d.kind == decRefresh || c.refreshWanted[chIdx]:
			for i := range ready {
				e := &ready[i]
				t.charge(e.slot, int(e.victim), t.threads, causeRefresh, 1)
				t.attr[e.slot].from = now + 1
			}
		default:
			// No command issued: a strict key rule is holding every
			// offering bank for a not-yet-ready request; charge the
			// thread the victim's bank is held for (recorded per bank in
			// the hold ranges).
			holds := t.holds[chIdx]
			aggr := t.threads
			for i, h := 0, 0; i < len(ready); i++ {
				for h < len(holds) && int(holds[h].base) <= i {
					aggr = int(holds[h].thread)
					h++
				}
				e := &ready[i]
				t.charge(e.slot, int(e.victim), aggr, causePolicy, 1)
				t.attr[e.slot].from = now + 1
			}
		}
		t.ready[chIdx] = ready[:0]
	}
	t.holds[chIdx] = t.holds[chIdx][:0]

	for _, idx := range t.touched {
		cycles := t.stage[idx]
		t.stage[idx] = 0
		t.cube[idx] += cycles
		if t.pairCtr != nil {
			t.pairCtr[int(idx)/numCauses].Add(cycles)
			t.causeCtr[int(idx)%numCauses].Add(cycles)
		}
	}
	t.touched = t.touched[:0]
}

// BeforeIssue finalizes a request's attribution at its CAS issue: by
// construction attrFrom == now and attrTotal covers [arrival, now)
// exactly; the audit layer re-checks that conservation invariant.
func (t *intfTracker) BeforeIssue(cmd audit.Cmd, now int64) {
	if t.aud != nil && cmd.Kind.IsCAS() {
		t.aud.OnAttributed(cmd.Req, t.attr[cmd.Req.Slot].total, now)
	}
}

// topAggressor returns the other thread charged the most of the slot's
// wait and that charge (-1, 0 when nothing was attributed to another
// thread). The "none" bucket and the victim's own column are excluded.
func (t *intfTracker) topAggressor(slot int32, victim int) (int, int64) {
	row := t.attrBy[int(slot)*t.aggrs : (int(slot)+1)*t.aggrs]
	top, best := -1, int64(0)
	for a := 0; a < t.threads; a++ {
		if a != victim && row[a] > best {
			top, best = a, row[a]
		}
	}
	return top, best
}

// snapshotLocked builds a snapshot from the cube; sinceBaseline
// subtracts the measurement-start baseline. Simulation goroutine only
// (reads the live cube).
func (t *intfTracker) buildSnapshot(sinceBaseline bool) InterferenceSnapshot {
	s := InterferenceSnapshot{
		Threads:     t.threads,
		Causes:      InterferenceCauses(),
		Matrix:      make([][]int64, t.threads),
		Cube:        make([][][]int64, t.threads),
		CauseTotals: make([]int64, numCauses),
	}
	for v := 0; v < t.threads; v++ {
		row := make([]int64, t.aggrs)
		crow := make([][]int64, t.aggrs)
		for a := 0; a < t.aggrs; a++ {
			cells := make([]int64, numCauses)
			var sum int64
			for cs := 0; cs < numCauses; cs++ {
				d := t.cube[t.cubeIdx(v, a, cs)]
				if sinceBaseline {
					d -= t.baseline[t.cubeIdx(v, a, cs)]
				}
				cells[cs] = d
				sum += d
				s.CauseTotals[cs] += d
			}
			row[a] = sum
			crow[a] = cells
			s.Total += sum
			if a < t.threads && a != v {
				s.Cross += sum
			}
		}
		s.Matrix[v] = row
		s.Cube[v] = crow
	}
	return s
}

// pairTotals writes the cause-summed matrix (threads x aggrs,
// flattened) into dst; the fairness monitor diffs successive calls to
// find each epoch's top aggressor. Simulation goroutine only.
func (t *intfTracker) pairTotals(dst []int64) {
	for v := 0; v < t.threads; v++ {
		for a := 0; a < t.aggrs; a++ {
			var sum int64
			for cs := 0; cs < numCauses; cs++ {
				sum += t.cube[t.cubeIdx(v, a, cs)]
			}
			dst[v*t.aggrs+a] = sum
		}
	}
}

// InterferenceEnabled reports whether delay attribution is on.
func (c *Controller) InterferenceEnabled() bool { return c.intf != nil }

// InterferenceSnapshot returns the attribution matrix, cumulative or
// relative to the measurement baseline. Simulation goroutine only; the
// second result is false when attribution is off.
func (c *Controller) InterferenceSnapshot(sinceBaseline bool) (InterferenceSnapshot, bool) {
	if c.intf == nil {
		return InterferenceSnapshot{}, false
	}
	return c.intf.buildSnapshot(sinceBaseline), true
}

// MarkInterferenceBaseline records the current matrix as the
// measurement baseline (called when warmup ends), so windowed results
// cover only the measured interval. Simulation goroutine only.
func (c *Controller) MarkInterferenceBaseline() {
	if c.intf != nil {
		copy(c.intf.baseline, c.intf.cube)
	}
}

// PublishInterference refreshes the snapshot concurrent readers see.
// Simulation goroutine only (the sampler calls it at epoch
// boundaries).
func (c *Controller) PublishInterference() {
	if c.intf == nil {
		return
	}
	s := c.intf.buildSnapshot(false)
	c.intf.mu.Lock()
	c.intf.published = s
	c.intf.hasPub = true
	c.intf.mu.Unlock()
}

// PublishedInterference returns the most recently published snapshot.
// Safe from any goroutine; false before the first publish or when
// attribution is off.
func (c *Controller) PublishedInterference() (InterferenceSnapshot, bool) {
	if c.intf == nil {
		return InterferenceSnapshot{}, false
	}
	c.intf.mu.Lock()
	defer c.intf.mu.Unlock()
	return c.intf.published, c.intf.hasPub
}

// state visits the tracker: the matrix, its baseline, and each live
// request's accounting in the controller's request-serialization order
// (pending queues bank by bank, then in-flight reads channel by
// channel). Controller.State rebuilds the arena in that same order
// before calling here when loading, so the one walk rejoins the
// per-slot state to its request bit-identically in both directions.
func (t *intfTracker) state(s *snapshot.Codec, c *Controller) {
	s.Section("memctrl.Interference")
	s.I64s(t.cube)
	s.I64s(t.baseline)
	slotState := func(slot int32) {
		s.I64(&t.attr[slot].from)
		s.I64(&t.attr[slot].total)
		s.I64s(t.attrBy[int(slot)*t.aggrs : (int(slot)+1)*t.aggrs])
	}
	var order []int32
	for b := range c.bankWake {
		order = c.bankOrder(b, order)
		for _, slot := range order {
			slotState(slot)
		}
	}
	for ch := range c.inflight {
		for _, f := range c.inflight[ch][c.inflightHead[ch]:] {
			slotState(f.slot)
		}
	}
	s.End()
}
