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
// matrix cycles[victim][aggressor] plus per-cause totals. The tracker is
// an ordinary Observer: it reads device state and never feeds a
// decision, so enabling it leaves every simulated result bit-identical,
// and it hears only the event stream, which is the same under the
// per-cycle oracle and the event-driven path, so the cube is too. It is
// conservative by construction: a request's attributed cycles sum to
// exactly its queueing delay (arrival to CAS issue), which the audit
// layer re-checks at every service start.
//
// A channel's device state changes only at its commands and refreshes,
// so at each of those events one EarliestIssue per (bank, command class)
// is the first cycle since the channel's previous event that each
// waiting request's next command was legal. That value splits the
// request's uncharged span [from, now] exactly:
//
//   - cycles before it are blocked: charged, once the request is ready,
//     to the binding DDR2 constraint (dram.BlockingCause names the
//     resource and the thread whose command set it);
//   - ready cycles before now, on which the channel issued nothing, go
//     to a pending refresh, else to the thread whose activate opened the
//     bank's row (a bank holding for one request by key), else to no
//     thread;
//   - the event's own cycle goes to the command's thread (the policy's
//     beneficiary), except for the command's own request, whose cycle
//     is service, not wait.
//
// Two boundary rules follow the per-cycle oracle. A request whose
// command becomes legal exactly at a refresh cycle is still blocked
// (the cycle a refresh issues schedules no bank). A request accepted
// after its cycle's tick missed that cycle's scheduling, so its arrival
// cycle is charged at once: to refresh if the channel refreshes next
// cycle, else to the policy with no aggressor if the command is already
// legal; otherwise it is blocked.

// Attribution causes. Exclusive: each waited cycle lands in exactly one.
const (
	causeBankOther = iota // bank busy on another thread's request
	causeBankSelf         // bank busy on this request's own service
	causeBus              // shared data bus occupied
	causeTiming           // channel/rank spacing (tCCD, tWTR, tRRD)
	causeRefresh          // refresh window or a pending refresh
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

// attrState packs a slot's two hot accounting fields on one cache
// line: the cycle up to which its wait is attributed (exclusive) and
// the cycles attributed so far.
type attrState struct {
	from  int64
	total int64
}

// intfTracker is the per-controller attribution state, nil when the
// feature is off.
type intfTracker struct {
	nopObserver
	c *Controller

	threads int
	aggrs   int // threads + 1 ("none" bucket)

	// Per-slot accounting, indexed like the request arena. attrBy rows
	// survive until the slot is recycled so the trace writer can name a
	// completed request's top aggressor.
	attr   []attrState
	attrBy []int64 // nslots x aggrs

	// cube[victim][aggressor][cause], flattened; baseline is the copy
	// taken when measurement begins, so windowed results exclude warmup.
	cube     []int64
	baseline []int64

	// Registry mirrors (nil without a registry), bumped with the cube so
	// the epoch sampler sees counter deltas.
	pairCtr  []*metrics.Counter // threads x aggrs
	causeCtr [numCauses]*metrics.Counter

	// published is the copy of the cube served to concurrent readers
	// (the telemetry server); refreshed on the simulation goroutine by
	// PublishInterference and expanded into a snapshot on read.
	mu        sync.Mutex
	published []int64
	hasPub    bool
}

func newIntfTracker(c *Controller, reg *metrics.Registry) *intfTracker {
	threads := c.cfg.Threads
	aggrs := threads + 1
	nslots := len(c.arena)
	cells := threads * aggrs * numCauses
	t := &intfTracker{
		c:        c,
		threads:  threads,
		aggrs:    aggrs,
		attr:     make([]attrState, nslots),
		attrBy:   make([]int64, nslots*aggrs),
		cube:     make([]int64, cells),
		baseline: make([]int64, cells),
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

// OnAccept initializes a slot's accounting at its arrival cycle. A
// request accepted after the tick of its cycle was not there when the
// cycle was scheduled, and the device cannot change before the next
// tick, so the arrival cycle's charge is known now (the second boundary
// rule above).
func (t *intfTracker) OnAccept(r *core.Request, now int64) {
	slot := r.Slot
	t.attr[slot] = attrState{from: now}
	clear(t.attrBy[int(slot)*t.aggrs : int(slot+1)*t.aggrs])
	if t.c.tickedAt != now {
		return
	}
	ch, lb := t.c.chanOf(r.GlobalBank)
	openRow, open := ch.BankOpen(lb)
	cls, _ := classOf(r, open, openRow)
	switch {
	case now+1 >= t.c.nextRefreshAt[r.Channel] && ch.EarliestIssue(dram.KindRefresh, 0) <= now+1:
		// The channel refreshes next cycle: the request is first seen
		// after the refresh, blocked by it since arrival.
		t.charge(slot, r.Thread, t.threads, causeRefresh, 1)
	case ch.EarliestIssue(classKind(cls, open), lb) <= now:
		t.charge(slot, r.Thread, t.threads, causePolicy, 1)
	default:
		return
	}
	t.attr[slot].from = now + 1
}

// OnRefresh settles the channel's waits up to the refresh cycle.
func (t *intfTracker) OnRefresh(chIdx int, now int64) {
	t.settle(chIdx, now, true, noSlot, t.threads)
}

// BeforeIssue settles the channel's waits through the command's cycle
// and, at a CAS, has the auditor re-check that the request's attributed
// cycles cover [arrival, now) exactly.
func (t *intfTracker) BeforeIssue(cmd audit.Cmd, now int64) {
	slot, winner := noSlot, t.threads // "none": an idle-close precharge
	if cmd.Req != nil {
		slot, winner = cmd.Req.Slot, cmd.Req.Thread
	}
	t.settle(cmd.FlatBank/t.c.banksPerChan, now, false, slot, winner)
	if aud := t.c.aud; aud != nil && cmd.Kind.IsCAS() {
		aud.OnAttributed(cmd.Req, t.attr[slot].total, now)
	}
}

// settle charges every waiting request of a channel whose next command
// is legal at an event at cycle now, by the rule above: its blocked
// span, its ready span (a pending refresh counts from the cycle the
// refresh fell due), and, at a command, the event's cycle to winner
// unless the request is the command's own (slot). At a refresh the
// event's cycle is the refresh's, and a command legal only from it on
// stays blocked.
func (t *intfTracker) settle(chIdx int, now int64, refresh bool, slot int32, winner int) {
	c := t.c
	ch := c.chans[chIdx]
	legal := now // a command is ready if its EarliestIssue is at most this
	if refresh {
		legal = now - 1
	}
	pendingFrom := min(c.nextRefreshAt[chIdx], now)
	none, nt := t.threads, t.threads
	lo := chIdx * c.banksPerChan
	for b := lo; b < lo+c.banksPerChan; b++ {
		qs := c.pending[b*nt : (b+1)*nt]
		lb := b - lo
		openRow, open := ch.BankOpen(lb)
		holder := none
		if th := ch.ActivateThread(lb); open && th >= 0 {
			holder = th
		}
		var early [numClasses]int64
		var asked uint8 // the classes early holds
		for v, q := range qs {
			for _, s := range q {
				cls, _ := classOf(&c.arena[s], open, openRow)
				if asked&(1<<cls) == 0 {
					asked |= 1 << cls
					early[cls] = ch.EarliestIssue(classKind(cls, open), lb)
				}
				e := early[cls]
				if e > legal {
					continue
				}
				f := t.attr[s].from
				if f < e {
					_, bc, th := ch.BlockingCause(classKind(cls, open), lb)
					cause, aggr := t.classify(v, bc, th)
					t.charge(s, v, aggr, cause, e-f)
					f = e
				}
				if held := max(pendingFrom, f); held > f {
					t.charge(s, v, holder, causePolicy, held-f)
					f = held
				}
				if f < now {
					t.charge(s, v, none, causeRefresh, now-f)
				}
				next := now
				if !refresh && s != slot {
					t.charge(s, v, winner, causePolicy, 1)
					next++
				}
				t.attr[s].from = next
			}
		}
	}
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

// charge attributes cycles to (victim, aggr, cause) for a slot.
func (t *intfTracker) charge(slot int32, victim, aggr, cause int, cycles int64) {
	t.attr[slot].total += cycles
	t.attrBy[int(slot)*t.aggrs+aggr] += cycles
	idx := t.cubeIdx(victim, aggr, cause)
	t.cube[idx] += cycles
	if t.pairCtr != nil {
		t.pairCtr[idx/numCauses].Add(cycles)
		t.causeCtr[cause].Add(cycles)
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

// buildSnapshot builds a snapshot from cube (the live cube or its
// published copy), less the baseline when one is given.
func (t *intfTracker) buildSnapshot(cube, baseline []int64) InterferenceSnapshot {
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
				d := cube[t.cubeIdx(v, a, cs)]
				if baseline != nil {
					d -= baseline[t.cubeIdx(v, a, cs)]
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

// InterferenceEnabled reports whether delay attribution is on.
func (c *Controller) InterferenceEnabled() bool { return c.intf != nil }

// InterferenceSnapshot returns the attribution matrix, cumulative or
// relative to the measurement baseline. Simulation goroutine only; the
// second result is false when attribution is off.
func (c *Controller) InterferenceSnapshot(sinceBaseline bool) (InterferenceSnapshot, bool) {
	if c.intf == nil {
		return InterferenceSnapshot{}, false
	}
	var baseline []int64
	if sinceBaseline {
		baseline = c.intf.baseline
	}
	return c.intf.buildSnapshot(c.intf.cube, baseline), true
}

// MarkInterferenceBaseline records the current matrix as the
// measurement baseline (called when warmup ends), so windowed results
// cover only the measured interval. Simulation goroutine only.
func (c *Controller) MarkInterferenceBaseline() {
	if c.intf != nil {
		copy(c.intf.baseline, c.intf.cube)
	}
}

// PublishInterference refreshes the cube concurrent readers see, by
// copying it into a buffer it reuses. Simulation goroutine only (the
// sampler calls it at epoch boundaries).
func (c *Controller) PublishInterference() {
	t := c.intf
	if t == nil {
		return
	}
	t.mu.Lock()
	t.published = append(t.published[:0], t.cube...)
	t.hasPub = true
	t.mu.Unlock()
}

// PublishedInterference returns the most recently published snapshot,
// built on each call. Safe from any goroutine; false before the first
// publish or when attribution is off.
func (c *Controller) PublishedInterference() (InterferenceSnapshot, bool) {
	t := c.intf
	if t == nil {
		return InterferenceSnapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasPub {
		return InterferenceSnapshot{}, false
	}
	return t.buildSnapshot(t.published, nil), true
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
