package memctrl

import (
	"fmt"
	"slices"
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
//
// Requests are charged by (bank, thread, class) group, not one by one:
// see settle.

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
// the cycles attributed so far. While the slot is a joined member of a
// group, from is the group's, and total and its attrBy row hold what
// the slot had when it joined less the group's sums then (see join).
type attrState struct {
	from  int64
	total int64
}

// attrGroup is one (bank, thread, class) group: its joined members'
// shared accounting (their common from, and the cycles charged to the
// group since it was founded, in total and by aggressor in its gRow
// row), their count, the first of its loose members (waiting to join,
// linked through intfTracker.link), whether its channel's live list
// holds it, and its thread and flat bank.
type attrGroup struct {
	from   int64
	total  int64
	n      int32
	loose  int32
	listed bool
	thread int32
	bank   int32
}

// slotLink is a waiting slot's group (noGroup when it is in none) and,
// for a loose member, the next loose member of that group (noSlot ends
// the list); joined marks a joined member.
type slotLink struct {
	group int32
	next  int32
}

const (
	noGroup = int32(-1)
	joined  = int32(-2)
)

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

	// Group charging. A group is indexed (flat bank*threads + thread)*
	// numClasses + class; link places each slot in one, and each
	// channel ch lists its groups that have members, in index order (so
	// by bank), in live[ch*perChan:], nlive[ch] of them.
	groups  []attrGroup
	gRow    []int64 // len(groups) x aggrs
	link    []slotLink
	live    []int32
	nlive   []int32
	perChan int
	visits  int64 // groups and requests examined (AttributionVisits)

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
	ngroups := len(c.pending) * numClasses
	cells := threads * aggrs * numCauses
	t := &intfTracker{
		c:        c,
		threads:  threads,
		aggrs:    aggrs,
		attr:     make([]attrState, nslots),
		attrBy:   make([]int64, nslots*aggrs),
		groups:   make([]attrGroup, ngroups),
		gRow:     make([]int64, ngroups*aggrs),
		link:     make([]slotLink, nslots),
		live:     make([]int32, ngroups),
		nlive:    make([]int32, len(c.chans)),
		perChan:  c.banksPerChan * threads * numClasses,
		cube:     make([]int64, cells),
		baseline: make([]int64, cells),
	}
	t.reset()
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

// reset empties every group, as New builds the tracker and a restore
// starts.
func (t *intfTracker) reset() {
	for gi := range t.groups {
		t.groups[gi] = attrGroup{loose: noSlot, thread: int32(gi / numClasses % t.threads), bank: int32(gi / numClasses / t.threads)}
	}
	for i := range t.link {
		t.link[i] = slotLink{group: noGroup}
	}
	clear(t.nlive)
	t.visits = 0
}

func (t *intfTracker) cubeIdx(victim, aggr, cause int) int {
	return (victim*t.aggrs+aggr)*numCauses + cause
}

// row returns a slot's per-aggressor accounting.
func (t *intfTracker) row(slot int32) []int64 {
	return t.attrBy[int(slot)*t.aggrs : (int(slot)+1)*t.aggrs]
}

// touch lists a group that is gaining a member on its channel.
func (t *intfTracker) touch(gi int32) {
	g := &t.groups[gi]
	if g.listed {
		return
	}
	g.listed = true
	ch := int(gi) / t.perChan
	live := t.live[ch*t.perChan : ch*t.perChan+int(t.nlive[ch])+1]
	i := len(live) - 1
	for ; i > 0 && live[i-1] > gi; i-- {
		live[i] = live[i-1]
	}
	live[i] = gi
	t.nlive[ch]++
}

// prune unlists a group left with no member of either kind.
func (t *intfTracker) prune(gi int32) {
	g := &t.groups[gi]
	if g.n > 0 || g.loose != noSlot || !g.listed {
		return
	}
	g.listed = false
	ch := int(gi) / t.perChan
	live := t.live[ch*t.perChan : ch*t.perChan+int(t.nlive[ch])]
	i := slices.Index(live, gi)
	copy(live[i:], live[i+1:])
	t.nlive[ch]--
}

// join makes a slot in no group a joined member of group gi, founding
// the group if it has no joined member; otherwise the slot's from must
// be the group's. The slot keeps its accounting less the group's sums,
// so adding them back (detach) restores its own values with every
// charge the group took meanwhile.
func (t *intfTracker) join(slot, gi int32) {
	t.touch(gi)
	g := &t.groups[gi]
	gRow := t.gRow[int(gi)*t.aggrs : int(gi+1)*t.aggrs]
	if g.n == 0 {
		g.from, g.total = t.attr[slot].from, 0
		clear(gRow)
	}
	g.n++
	t.attr[slot].total -= g.total
	row := t.row(slot)
	for a, x := range gRow {
		row[a] -= x
	}
	t.link[slot] = slotLink{group: gi, next: joined}
}

// place puts a slot in no group into the group of its class: joined if
// its from is the group's (or the group has no joined member), else
// loose.
func (t *intfTracker) place(slot int32, cls int) {
	r := &t.c.arena[slot]
	gi := int32((r.GlobalBank*t.threads+r.Thread)*numClasses + cls)
	if g := &t.groups[gi]; g.n == 0 || g.from == t.attr[slot].from {
		t.join(slot, gi)
		return
	}
	t.touch(gi)
	g := &t.groups[gi]
	t.link[slot] = slotLink{group: gi, next: g.loose}
	g.loose = slot
}

// detach takes a slot out of its group, with its accounting made its
// own again.
func (t *intfTracker) detach(slot int32) {
	l := t.link[slot]
	if l.group == noGroup {
		return
	}
	g := &t.groups[l.group]
	if l.next == joined {
		t.attr[slot].from = g.from
		t.attr[slot].total += g.total
		row := t.row(slot)
		for a, x := range t.gRow[int(l.group)*t.aggrs : int(l.group+1)*t.aggrs] {
			row[a] += x
		}
		g.n--
	} else {
		p := &g.loose
		for *p != slot {
			p = &t.link[*p].next
		}
		*p = l.next
	}
	t.link[slot] = slotLink{group: noGroup}
	t.prune(l.group)
}

// OnAccept initializes a slot's accounting at its arrival cycle. A
// request accepted after the tick of its cycle was not there when the
// cycle was scheduled, and the device cannot change before the next
// tick, so the arrival cycle's charge is known now (the second boundary
// rule above).
func (t *intfTracker) OnAccept(r *core.Request, now int64) {
	slot := r.Slot
	t.attr[slot] = attrState{from: now}
	clear(t.row(slot))
	ch, lb := t.c.chanOf(r.GlobalBank)
	openRow, open := ch.BankOpen(lb)
	cls, _ := classOf(r, open, openRow)
	if t.c.tickedAt == now {
		switch {
		case now+1 >= t.c.nextRefreshAt[r.Channel] && ch.EarliestIssue(dram.KindRefresh, 0) <= now+1:
			// The channel refreshes next cycle: the request is first seen
			// after the refresh, blocked by it since arrival.
			t.charge(&t.attr[slot].total, t.row(slot), 1, r.Thread, t.threads, causeRefresh, 1)
			t.attr[slot].from = now + 1
		case ch.EarliestIssue(classKind(cls, open), lb) <= now:
			t.charge(&t.attr[slot].total, t.row(slot), 1, r.Thread, t.threads, causePolicy, 1)
			t.attr[slot].from = now + 1
		}
	}
	t.place(slot, cls)
}

// OnRefresh settles the channel's waits up to the refresh cycle.
func (t *intfTracker) OnRefresh(chIdx int, now int64) {
	t.settle(chIdx, now, true, noSlot, t.threads)
}

// BeforeIssue settles the channel's waits through the command's cycle
// and, at a CAS, has the auditor re-check that the request's attributed
// cycles cover [arrival, now) exactly. The command's own request is the
// one waiting request whose charge differs from its group's: its event
// cycle is service, not wait. The settle charges it with its group but
// leaves that cycle out of the cube, so here it leaves its group and
// gives the cycle back. It leaves its queue at a CAS, and AfterIssue
// places it again after an activate or precharge.
func (t *intfTracker) BeforeIssue(cmd audit.Cmd, now int64) {
	chIdx := cmd.FlatBank / t.c.banksPerChan
	r := cmd.Req
	if r == nil { // an idle-close precharge
		t.settle(chIdx, now, false, noSlot, t.threads)
		return
	}
	t.settle(chIdx, now, false, r.Slot, r.Thread)
	t.detach(r.Slot)
	a := &t.attr[r.Slot]
	a.from, a.total = now, a.total-1
	t.row(r.Slot)[r.Thread]--
	if aud := t.c.aud; aud != nil && cmd.Kind.IsCAS() {
		aud.OnAttributed(r, a.total, now)
	}
}

// AfterIssue regroups the bank of an activate or precharge, whose
// state change moved requests between classes: an activate the hits
// of the row it opened out of the miss class, a precharge every read
// and write into it. A joined member that moved leaves its group, and
// the loose lists of the classes that lost members are rebuilt. The
// command's own request is placed again.
func (t *intfTracker) AfterIssue(cmd audit.Cmd, _ int64) {
	if cmd.Kind != dram.KindActivate && cmd.Kind != dram.KindPrecharge {
		return
	}
	c, b, nt := t.c, cmd.FlatBank, t.threads
	ch, lb := c.chanOf(b)
	openRow, open := ch.BankOpen(lb)
	for v, q := range c.pending[b*nt : (b+1)*nt] {
		base := int32((b*nt + v) * numClasses)
		gs := t.groups[base : base+numClasses]
		var lost uint8 // the classes that can have lost members
		if open {
			lost = 1 << classMiss
		} else {
			lost = 1<<classRead | 1<<classWrite
		}
		moving := false
		for k := range gs {
			if lost&(1<<k) != 0 && (gs[k].n > 0 || gs[k].loose != noSlot) {
				moving = true
			}
		}
		if !moving {
			continue
		}
		// Rebuild the losing classes' loose lists from the walk.
		for k := range gs {
			if lost&(1<<k) != 0 {
				gs[k].loose = noSlot
			}
		}
		for _, s := range q {
			l := &t.link[s]
			if l.group == noGroup || lost&(1<<(l.group-base)) == 0 {
				continue
			}
			t.visits++
			cls, _ := classOf(&c.arena[s], open, openRow)
			switch {
			case l.next != joined:
				*l = slotLink{group: noGroup}
				t.place(s, cls)
			case int(l.group-base) != cls:
				t.detach(s)
				t.place(s, cls)
			}
		}
		for k := range gs {
			t.prune(base + int32(k))
		}
	}
	if r := cmd.Req; r != nil {
		cls, _ := classOf(r, open, openRow)
		t.place(r.Slot, cls)
	}
}

// settle charges every waiting request of a channel whose next command
// is legal at an event at cycle now, by the rule above: its blocked
// span, its ready span (a pending refresh counts from the cycle the
// refresh fell due), and, at a command, the event's cycle to winner.
// At a refresh the event's cycle is the refresh's, and a command legal
// only from it on stays blocked. The command's own request (slot own)
// is charged the event's cycle in its accounting but not in the cube
// (BeforeIssue takes it back), and is left in no group.
//
// Every input of that rule but a request's from is a function of its
// bank, class, thread or channel, so settle charges a group's joined
// members once, together, and each loose member alone, after which it
// shares the group's from and joins.
func (t *intfTracker) settle(chIdx int, now int64, refresh bool, own int32, winner int) {
	c := t.c
	w := wait{ch: c.chans[chIdx], now: now, pendingFrom: min(c.nextRefreshAt[chIdx], now), winner: winner}
	legal := now // a command is ready if its EarliestIssue is at most this
	if refresh {
		legal, w.winner = now-1, -1
	}
	ownGroup, ownLoose := noGroup, noGroup // the group own is a joined or loose member of
	if own != noSlot {
		if l := t.link[own]; l.next == joined {
			ownGroup = l.group
		} else {
			ownLoose = l.group
		}
	}
	bank := -1 // the flat bank w describes
	var early [numClasses]int64
	var asked uint8 // the classes early holds for bank
	live := t.live[chIdx*t.perChan : chIdx*t.perChan+int(t.nlive[chIdx])]
	t.visits += int64(len(live))
	for _, gi := range live {
		g := &t.groups[gi]
		if b := int(g.bank); b != bank {
			bank, asked = b, 0
			w.lb = b - chIdx*c.banksPerChan
			_, w.open = w.ch.BankOpen(w.lb)
			w.holder = t.threads
			if th := w.ch.ActivateThread(w.lb); w.open && th >= 0 {
				w.holder = th
			}
		}
		cls := int(gi) % numClasses
		if asked&(1<<cls) == 0 {
			asked |= 1 << cls
			early[cls] = w.ch.EarliestIssue(classKind(cls, w.open), w.lb)
		}
		e := early[cls]
		if e > legal {
			continue
		}
		v := int(g.thread)
		if g.n > 0 {
			g.from = t.chargeWait(&w, &g.total, t.gRow[int(gi)*t.aggrs:int(gi+1)*t.aggrs], int64(g.n), gi == ownGroup, v, cls, g.from, e)
		}
		for s := g.loose; s != noSlot; {
			t.visits++
			next := t.link[s].next
			t.attr[s].from = t.chargeWait(&w, &t.attr[s].total, t.row(s), 1, s == own, v, cls, t.attr[s].from, e)
			if s == own {
				t.link[s] = slotLink{group: noGroup}
			} else {
				t.join(s, gi)
			}
			s = next
		}
		g.loose = noSlot
	}
	if ownLoose != noGroup {
		// Unlisted only now: pruning would shift the list walked above.
		t.prune(ownLoose)
	}
}

// wait is what settle's charges share on one bank at one event.
type wait struct {
	ch          *dram.Channel
	lb          int
	open        bool
	now         int64
	pendingFrom int64
	holder      int // the thread whose activate opened the row, or none
	winner      int // the event cycle's aggressor, -1 when not charged
}

// chargeWait charges the uncharged wait [from, now] of n requests of
// thread v sharing the accounting total and row, whose class cls became
// legal at e, and returns their new from. With own, one of them is the
// command's request, whose event cycle the cube does not get.
func (t *intfTracker) chargeWait(w *wait, total *int64, row []int64, n int64, own bool, v, cls int, from, e int64) int64 {
	f := from
	if f < e {
		_, bc, th := w.ch.BlockingCause(classKind(cls, w.open), w.lb)
		cause, aggr := classify(t.threads, v, bc, th)
		t.charge(total, row, n, v, aggr, cause, e-f)
		f = e
	}
	var held int64 // ready cycles to the row's holder
	if p := max(w.pendingFrom, f); p > f {
		held, f = p-f, p
	}
	if f < w.now {
		t.charge(total, row, n, v, t.threads, causeRefresh, w.now-f)
	}
	if w.winner < 0 {
		if held > 0 {
			t.charge(total, row, n, v, w.holder, causePolicy, held)
		}
		return w.now
	}
	if w.winner == w.holder && !own {
		t.charge(total, row, n, v, w.holder, causePolicy, held+1)
		return w.now + 1
	}
	if held > 0 {
		t.charge(total, row, n, v, w.holder, causePolicy, held)
	}
	if own {
		n--
	}
	t.charge(total, row, n, v, w.winner, causePolicy, 1)
	return w.now + 1
}

// classify maps a binding DDR2 constraint to an attribution cause and
// aggressor column, none being the "no aggressor" column.
func classify(none, victim int, bc dram.BlockCause, th int) (cause, aggr int) {
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

// charge attributes cycles to (victim, aggr, cause) for each of n
// requests whose accounting is total and row: a slot's own (n is 1) or
// a group's.
func (t *intfTracker) charge(total *int64, row []int64, n int64, victim, aggr, cause int, cycles int64) {
	*total += cycles
	row[aggr] += cycles
	idx := t.cubeIdx(victim, aggr, cause)
	t.cube[idx] += cycles * n
	if t.pairCtr != nil {
		t.pairCtr[idx/numCauses].Add(cycles * n)
		t.causeCtr[cause].Add(cycles * n)
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

// AttributionVisits returns how many groups and requests the
// interference tracker has examined since New or a restore (0 with
// attribution off): a settle's groups and loose requests, a regroup's
// members. It is the tracker's work as a count that repeats for a seed,
// like SchedCounts neither in the registry nor in a checkpoint.
func (c *Controller) AttributionVisits() int64 {
	if c.intf == nil {
		return 0
	}
	return c.intf.visits
}

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
// Saving first takes every waiting slot out of its group, so the wire
// carries each request's own values; both directions then place them
// again, and a load refuses accounting no run can reach.
func (t *intfTracker) state(s *snapshot.Codec, c *Controller) {
	loading := s.Loading()
	if loading {
		t.reset()
	} else {
		for _, q := range c.pending {
			for _, slot := range q {
				t.detach(slot)
			}
		}
	}
	s.Section("memctrl.Interference")
	s.I64s(t.cube)
	s.I64s(t.baseline)
	if loading {
		for i, x := range t.cube {
			if y := t.baseline[i]; x < 0 || y < 0 || y > x {
				s.Fail("cube cell %d holds %d cycles and its baseline %d", i, x, y)
				break
			}
		}
	}
	slotState := func(slot int32) {
		a, row := &t.attr[slot], t.row(slot)
		s.I64(&a.from)
		s.I64(&a.total)
		s.I64s(row)
		if !loading || s.Err() != nil {
			return
		}
		r := &c.arena[slot]
		var sum int64
		for _, x := range row {
			if x < 0 {
				s.Fail("request %d has %d cycles charged to one aggressor", r.ID, x)
				return
			}
			sum += x
		}
		switch {
		case a.total != a.from-r.ArrivalReal:
			s.Fail("request %d attributed %d cycles of its wait from %d to %d", r.ID, a.total, r.ArrivalReal, a.from)
		case sum != a.total:
			s.Fail("request %d attributed %d cycles, its aggressors %d", r.ID, a.total, sum)
		}
	}
	var order []int32
	for b := range c.bankWake {
		order = c.bankOrder(b, order)
		for _, slot := range order {
			slotState(slot)
		}
		if s.Err() == nil {
			ch, lb := c.chanOf(b)
			openRow, open := ch.BankOpen(lb)
			for _, slot := range order {
				cls, _ := classOf(&c.arena[slot], open, openRow)
				t.place(slot, cls)
			}
		}
	}
	for ch := range c.inflight {
		for _, f := range c.inflight[ch][c.inflightHead[ch]:] {
			slotState(f.slot)
		}
	}
	s.End()
}

// VerifyRestoreCycle refuses, through s, restored attribution that
// charges a live request's wait past cycle+1, where cycle is the one the
// restored run resumes at: a checkpoint is taken between cycles, so no
// wait can have been settled beyond it.
func (c *Controller) VerifyRestoreCycle(s *snapshot.Codec, cycle int64) {
	t := c.intf
	if t == nil || s.Err() != nil {
		return
	}
	check := func(slot int32) {
		if from := t.attr[slot].from; from > cycle+1 {
			s.Fail("request %d attributed through cycle %d, past the restored cycle %d", c.arena[slot].ID, from, cycle)
		}
	}
	for _, q := range c.pending {
		for _, slot := range q {
			check(slot)
		}
	}
	for ch := range c.inflight {
		for _, f := range c.inflight[ch][c.inflightHead[ch]:] {
			check(f.slot)
		}
	}
}
