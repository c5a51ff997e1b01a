// Package audit implements an opt-in runtime invariant auditor for the
// DRAM/scheduler stack. It shadows the memory controller's observable
// behavior with its own independent bookkeeping and validates, on every
// issued SDRAM command and every completed request:
//
//  1. DDR2 timing: every Table 6 constraint (tRCD, tRAS, tRP, tRC, tRRD,
//     tCCD, tWTR, tWR, tRTP, CAS-to-CAS data-bus occupancy, refresh
//     windows) is recomputed from the auditor's own shadow device state,
//     never from the channel model's bookkeeping, and cross-checked
//     against the device after every command.
//  2. Request conservation: accepted = completed + in-flight per thread,
//     occupancy never exceeds the buffer partitions, request IDs and
//     arrival stamps are monotone, and no request is starved past a
//     configurable age.
//  3. VTMS contract: the per-thread virtual-time registers follow
//     Equations 8 and 9 exactly (recomputed here from Table 4) and never
//     decrease; a request's policy key never changes once its first
//     command has issued (the frozen-key purity rule the event-driven
//     controller's caching depends on).
//  4. The FQ bank-scheduler's priority-inversion bound: a request that is
//     not the bank's minimum-key request may be serviced only while the
//     bank has been open for strictly less than x cycles (Section 3.3);
//     once the bank has been open x cycles or longer — or whenever the
//     bank is closed, where every candidate needs an activate — the
//     issued command must belong to the smallest-key pending request.
//     RuleStrict policies are held to smallest-key selection always.
//
// The auditor is deliberately redundant: it re-derives everything it
// checks from first principles (its own shadow banks, its own Table 4
// arithmetic) so that a bug in the controller's caching or the channel
// model's bookkeeping cannot hide itself. A violation panics with a
// *Violation carrying the recent command history and shadow state, since
// it indicates a simulator bug, never a recoverable condition.
package audit

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
)

// minTime is "minus infinity" for last-issue timestamps, matching the
// device model's sentinel.
const minTime = math.MinInt64 / 4

const (
	// history is the command-history ring size included in violation
	// dumps.
	history = 64

	// refreshSlack is how far past the nominal tREF interval a refresh
	// may be delayed by draining in-progress rows.
	refreshSlack = 25_000
)

// Config holds the auditor's tunable threshold. The zero value selects
// the default.
type Config struct {
	// MaxAge is the starvation bound: the oldest outstanding request may
	// not exceed this age in real cycles (default 200000; negative
	// disables). The default is far beyond any legitimate queueing delay
	// of the Table 5 system (24 entries/thread, tRC = 22, tRFC = 510)
	// but small enough to catch true starvation quickly.
	MaxAge int64
}

func (c Config) withDefaults() Config {
	if c.MaxAge == 0 {
		c.MaxAge = 200_000
	}
	return c
}

// Totals is the controller's own view of one thread's accounting, used
// for the conservation cross-check.
type Totals struct {
	ReadsAccepted, ReadsDone   int64
	WritesAccepted, WritesDone int64
	ReadOcc, WriteOcc          int
}

// Target describes the audited system. The Chans and Totals accessors
// give the auditor a read-only window into the live controller for
// cross-checking its shadow state; everything else is static geometry.
type Target struct {
	Timing       dram.Timing
	Channels     int
	Ranks        int
	BanksPerRank int
	Threads      int

	// ReadEntries and WriteEntries are the per-thread buffer partitions;
	// with SharedBuffers they pool to entries x Threads.
	ReadEntries, WriteEntries int
	SharedBuffers             bool

	// RefreshDisabled suppresses the refresh-deadline check.
	RefreshDisabled bool

	Policy core.Policy

	// Chans exposes the live device channels for state cross-checks.
	Chans []*dram.Channel

	// Totals reports the controller's accounting for one thread.
	Totals func(thread int) Totals
}

// Violation is the panic payload of a failed invariant.
type Violation struct {
	Cycle int64
	Msg   string
	Dump  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("audit: cycle %d: %s\n%s", v.Cycle, v.Msg, v.Dump)
}

// Cmd is the controller's command event (memctrl.Observer): one SDRAM
// command as the schedulers chose it. Req is nil for idle-close
// precharges (which belong to no request). The auditor reads the first
// five fields and re-derives the rest.
type Cmd struct {
	Kind     dram.Kind
	FlatBank int
	Row      int
	Key      int64
	Req      *core.Request

	// Inverted: a CAS that won while a same-bank request with a strictly
	// smaller key waited. First: the request's first command, State the
	// bank state its service began in. DataEnd: the cycle a CAS's data
	// burst ends, known from AfterIssue on.
	Inverted, First bool
	State           core.BankState
	DataEnd         int64
}

// shBank is the auditor's shadow of one DRAM bank.
type shBank struct {
	open                                            bool
	row                                             int
	lastAct, lastRead, lastWrite, lastPre, writeEnd int64
}

// shChan is the auditor's shadow of one channel's shared state.
type shChan struct {
	lastCAS, lastWriteEnd, busFreeAt int64
	refreshUntil, lastRefresh        int64
	lastCmd                          int64 // at most one command per channel per cycle
	rankLastAct                      []int64
}

// outReq tracks one outstanding request for conservation and starvation.
type outReq struct {
	r    *core.Request
	done bool
}

type threadAcc struct {
	readsAcc, readsDone, writesAcc, writesDone int64
}

type histEntry struct {
	cycle  int64
	what   string
	bank   int
	row    int
	thread int
	id     uint64
	key    int64
}

// vtmsProvider is satisfied by the VTMS-register policy family
// (FR-VFTF, FQ-VFTF, FR-VSTF, FR-VFTF-arrival).
type vtmsProvider interface{ ThreadVTMS(int) *core.VTMS }

// tickerProvider is satisfied by the interval-based arena policies
// (BLISS, SLOW-FAIR, BANK-BW): window bookkeeping the auditor holds to
// the PolicyTicker contract — next boundary = last + interval, and the
// controller never lets a boundary slip past unfired.
type tickerProvider interface {
	LastTickAt() int64
	NextTickAt() int64
	TickInterval() int64
}

// blissProvider exposes BLISS's Key-feeding blacklist, which may change
// only at a tick boundary.
type blissProvider interface{ Blacklisted(thread int) bool }

// slowdownProvider exposes SLOW-FAIR's Key-feeding boost target, which
// may change only at a tick boundary.
type slowdownProvider interface{ BoostedThread() int }

// budgetProvider exposes BANK-BW's per-(thread, bank) budgets. The
// auditor counts CAS commands per window itself and demands
// budget == quota - count exactly, after every request command.
type budgetProvider interface {
	BankBudget(thread, bank int) int64
	BudgetQuota() int64
}

// Auditor validates the invariants; see the package comment. It is not
// safe for concurrent use (each controller owns one).
type Auditor struct {
	cfg Config
	tgt Target

	banksPerChan int
	banks        []shBank
	chans        []shChan
	pend         [][]*core.Request

	lastID      uint64
	lastArrival int64
	out         map[uint64]*outReq
	fifo        []uint64
	head        int
	acc         []threadAcc

	frozen map[uint64]int64

	vtms               vtmsProvider
	preBankR, preChanR core.VTime

	// Interval-policy tracking: shadows of the Key-feeding state the
	// tickerProvider policies may move only at tick boundaries, and the
	// auditor's own CAS-per-window ledger for exact budget accounting.
	tick        tickerProvider
	bliss       blissProvider
	slow        slowdownProvider
	budget      budgetProvider
	blShadow    []bool
	boostShadow int
	casCount    []int64 // thread*nbanks + flat bank
	winStart    int64   // LastTickAt value casCount counts from

	hist     []histEntry
	histLen  int
	histNext int

	cmds         int64
	maxInvWindow int64
}

// New returns an auditor over the target system.
func New(cfg Config, tgt Target) *Auditor {
	cfg = cfg.withDefaults()
	nbanks := tgt.Channels * tgt.Ranks * tgt.BanksPerRank
	a := &Auditor{
		cfg:          cfg,
		tgt:          tgt,
		banksPerChan: tgt.Ranks * tgt.BanksPerRank,
		banks:        make([]shBank, nbanks),
		chans:        make([]shChan, tgt.Channels),
		pend:         make([][]*core.Request, nbanks),
		out:          make(map[uint64]*outReq),
		acc:          make([]threadAcc, tgt.Threads),
		frozen:       make(map[uint64]int64),
		hist:         make([]histEntry, history),
		lastArrival:  minTime,
	}
	for i := range a.banks {
		b := &a.banks[i]
		b.lastAct, b.lastRead, b.lastWrite, b.lastPre, b.writeEnd = minTime, minTime, minTime, minTime, minTime
	}
	for i := range a.chans {
		sc := &a.chans[i]
		sc.lastCAS, sc.lastWriteEnd, sc.busFreeAt = minTime, minTime, minTime
		sc.refreshUntil, sc.lastRefresh, sc.lastCmd = minTime, minTime, minTime
		sc.rankLastAct = make([]int64, tgt.Ranks)
		for r := range sc.rankLastAct {
			sc.rankLastAct[r] = minTime
		}
	}
	a.vtms, _ = tgt.Policy.(vtmsProvider)
	a.tick, _ = tgt.Policy.(tickerProvider)
	a.bliss, _ = tgt.Policy.(blissProvider)
	a.slow, _ = tgt.Policy.(slowdownProvider)
	a.budget, _ = tgt.Policy.(budgetProvider)
	if a.bliss != nil {
		a.blShadow = make([]bool, tgt.Threads)
	}
	if a.slow != nil {
		a.boostShadow = a.slow.BoostedThread()
	}
	if a.budget != nil {
		a.casCount = make([]int64, tgt.Threads*nbanks)
	}
	return a
}

// Commands returns how many SDRAM commands the auditor has validated.
func (a *Auditor) Commands() int64 { return a.cmds }

// MaxInversionWindow returns the largest observed bank-open age at which
// a non-minimum-key request was serviced under RuleFQ; the Section 3.3
// bound guarantees it stays strictly below x.
func (a *Auditor) MaxInversionWindow() int64 { return a.maxInvWindow }

// fail raises a Violation with the recent history and shadow state.
func (a *Auditor) fail(now int64, format string, args ...interface{}) {
	panic(&Violation{Cycle: now, Msg: fmt.Sprintf(format, args...), Dump: a.dump()})
}

// record appends one event to the history ring.
func (a *Auditor) record(e histEntry) {
	a.hist[a.histNext] = e
	a.histNext = (a.histNext + 1) % len(a.hist)
	if a.histLen < len(a.hist) {
		a.histLen++
	}
}

// dump renders the command history and shadow state for a violation.
func (a *Auditor) dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "last %d events (oldest first):\n", a.histLen)
	start := a.histNext - a.histLen
	if start < 0 {
		start += len(a.hist)
	}
	for i := 0; i < a.histLen; i++ {
		e := &a.hist[(start+i)%len(a.hist)]
		fmt.Fprintf(&sb, "  @%-8d %-4s bank=%-3d row=%-6d thread=%d id=%d key=%d\n",
			e.cycle, e.what, e.bank, e.row, e.thread, e.id, e.key)
	}
	sb.WriteString("shadow banks (open only):\n")
	for i := range a.banks {
		b := &a.banks[i]
		if b.open {
			fmt.Fprintf(&sb, "  bank %d: row=%d lastAct=%d\n", i, b.row, b.lastAct)
		}
	}
	sb.WriteString("pending per bank (non-empty):\n")
	for i, q := range a.pend {
		if len(q) > 0 {
			fmt.Fprintf(&sb, "  bank %d:", i)
			for _, r := range q {
				fmt.Fprintf(&sb, " id=%d/t%d@%d", r.ID, r.Thread, r.Arrival)
			}
			sb.WriteByte('\n')
		}
	}
	for t := range a.acc {
		ac := &a.acc[t]
		fmt.Fprintf(&sb, "thread %d: reads %d/%d writes %d/%d\n",
			t, ac.readsDone, ac.readsAcc, ac.writesDone, ac.writesAcc)
	}
	return sb.String()
}

// chanOf returns the shadow channel and local bank of a flat bank index.
func (a *Auditor) chanOf(flatBank int) (int, int) {
	return flatBank / a.banksPerChan, flatBank % a.banksPerChan
}

// stateFor returns the Table 3 bank state request r would see now,
// derived from the shadow bank.
func (a *Auditor) stateFor(r *core.Request) core.BankState {
	b := &a.banks[r.GlobalBank]
	switch {
	case !b.open:
		return core.BankClosed
	case b.row == r.Row:
		return core.BankHit
	default:
		return core.BankConflict
	}
}

// ---------------------------------------------------------------------
// Hooks
// ---------------------------------------------------------------------

// OnAccept validates and registers a newly accepted request.
// OnAttributed enforces the interference-attribution conservation
// invariant at the moment a request begins service (its CAS issues):
// the delay-accounting layer must have charged every cycle between the
// request's real arrival and now to some cause — no more, no fewer.
// Anything else means the attribution matrix double-counts or leaks
// wait cycles.
func (a *Auditor) OnAttributed(r *core.Request, cycles, now int64) {
	if want := now - r.ArrivalReal; cycles != want {
		a.fail(now, "request %d (thread %d) attributed %d wait cycles, queued %d (arrival %d, service %d)",
			r.ID, r.Thread, cycles, want, r.ArrivalReal, now)
	}
}

func (a *Auditor) OnAccept(r *core.Request, now int64) {
	if r.ID != a.lastID+1 {
		a.fail(now, "request ID %d not monotone (previous %d)", r.ID, a.lastID)
	}
	a.lastID = r.ID
	if r.Arrival < a.lastArrival {
		a.fail(now, "request %d arrival %d precedes previous arrival %d (virtual clock ran backwards)",
			r.ID, r.Arrival, a.lastArrival)
	}
	a.lastArrival = r.Arrival
	if r.ArrivalReal != now {
		a.fail(now, "request %d real arrival %d != accept cycle %d", r.ID, r.ArrivalReal, now)
	}
	// The virtual clock is incremented during Tick(now) before same-cycle
	// accepts, so it may legitimately read now+1; anything beyond that
	// means it outran the real clock.
	if r.Arrival > now+1 {
		a.fail(now, "request %d virtual arrival %d ahead of real clock %d", r.ID, r.Arrival, now)
	}
	gb := (r.Channel*a.tgt.Ranks+r.Rank)*a.tgt.BanksPerRank + r.Bank
	if gb != r.GlobalBank || gb < 0 || gb >= len(a.banks) {
		a.fail(now, "request %d bank coordinates (ch %d, rank %d, bank %d) decode to flat %d, stamped %d",
			r.ID, r.Channel, r.Rank, r.Bank, gb, r.GlobalBank)
	}
	if r.Thread < 0 || r.Thread >= a.tgt.Threads {
		a.fail(now, "request %d from unknown thread %d", r.ID, r.Thread)
	}

	ac := &a.acc[r.Thread]
	if r.IsWrite {
		ac.writesAcc++
	} else {
		ac.readsAcc++
	}
	a.checkOccupancy(r.Thread, now)

	a.pend[gb] = append(a.pend[gb], r)
	a.out[r.ID] = &outReq{r: r}
	a.fifo = append(a.fifo, r.ID)
	a.record(histEntry{cycle: now, what: "ACC", bank: gb, row: r.Row, thread: r.Thread, id: r.ID})
	a.checkAge(now)
}

// checkOccupancy bounds in-flight requests by the buffer partitions.
func (a *Auditor) checkOccupancy(thread int, now int64) {
	if a.tgt.SharedBuffers {
		var reads, writes int64
		for t := range a.acc {
			reads += a.acc[t].readsAcc - a.acc[t].readsDone
			writes += a.acc[t].writesAcc - a.acc[t].writesDone
		}
		if reads > int64(a.tgt.ReadEntries*a.tgt.Threads) {
			a.fail(now, "pooled read occupancy %d exceeds %d", reads, a.tgt.ReadEntries*a.tgt.Threads)
		}
		if writes > int64(a.tgt.WriteEntries*a.tgt.Threads) {
			a.fail(now, "pooled write occupancy %d exceeds %d", writes, a.tgt.WriteEntries*a.tgt.Threads)
		}
		return
	}
	ac := &a.acc[thread]
	if n := ac.readsAcc - ac.readsDone; n > int64(a.tgt.ReadEntries) {
		a.fail(now, "thread %d read occupancy %d exceeds partition %d", thread, n, a.tgt.ReadEntries)
	}
	if n := ac.writesAcc - ac.writesDone; n > int64(a.tgt.WriteEntries) {
		a.fail(now, "thread %d write occupancy %d exceeds partition %d", thread, n, a.tgt.WriteEntries)
	}
}

// checkAge enforces the starvation bound on the oldest outstanding
// request.
func (a *Auditor) checkAge(now int64) {
	for a.head < len(a.fifo) {
		e := a.out[a.fifo[a.head]]
		if e == nil || e.done {
			delete(a.out, a.fifo[a.head])
			a.head++
			if a.head > 1024 && a.head*2 > len(a.fifo) {
				a.fifo = append(a.fifo[:0], a.fifo[a.head:]...)
				a.head = 0
			}
			continue
		}
		if a.cfg.MaxAge >= 0 {
			if age := now - e.r.ArrivalReal; age > a.cfg.MaxAge {
				a.fail(now, "request %d (thread %d, bank %d) starved: age %d exceeds bound %d",
					e.r.ID, e.r.Thread, e.r.GlobalBank, age, a.cfg.MaxAge)
			}
		}
		return
	}
}

// OnTick runs the per-cycle checks that need no triggering command:
// starvation age and refresh deadlines. The controller calls it on every
// fully simulated cycle.
func (a *Auditor) OnTick(now int64) {
	a.checkAge(now)
	a.checkIntervalPolicy(now)
	if a.tgt.RefreshDisabled {
		return
	}
	tref := int64(a.tgt.Timing.TREF)
	for i := range a.chans {
		last := a.chans[i].lastRefresh
		if last == minTime {
			last = 0 // the first interval is measured from cycle zero
		}
		if now-last > tref+refreshSlack {
			a.fail(now, "channel %d refresh overdue: %d cycles since last refresh (tREF %d + slack %d)",
				i, now-last, tref, refreshSlack)
		}
	}
}

// checkIntervalPolicy holds a tickerProvider policy to its contract:
// the window bookkeeping stays consistent (next = last + interval with
// the boundary never slipping past unfired), and the Key-feeding
// interval state — blacklist bits, the boost target — changes only on
// a cycle whose tick just fired. Runs on every tick and after every
// command.
func (a *Auditor) checkIntervalPolicy(now int64) {
	if a.tick == nil {
		return
	}
	last, next, iv := a.tick.LastTickAt(), a.tick.NextTickAt(), a.tick.TickInterval()
	if iv <= 0 {
		a.fail(now, "interval policy reports non-positive tick interval %d", iv)
	}
	if next != last+iv {
		a.fail(now, "interval policy window inconsistent: next tick %d != last tick %d + interval %d", next, last, iv)
	}
	if last > now {
		a.fail(now, "interval policy last tick %d is in the future", last)
	}
	if next <= now {
		a.fail(now, "interval policy tick boundary %d missed: cycle %d reached with no Tick fired", next, now)
	}
	if a.bliss != nil {
		for t := range a.blShadow {
			if b := a.bliss.Blacklisted(t); b != a.blShadow[t] {
				if last != now {
					a.fail(now, "thread %d blacklist bit flipped outside a tick boundary (last tick %d)", t, last)
				}
				a.blShadow[t] = b
			}
		}
	}
	if a.slow != nil {
		if b := a.slow.BoostedThread(); b != a.boostShadow {
			if last != now {
				a.fail(now, "boost target moved %d -> %d outside a tick boundary (last tick %d)", a.boostShadow, b, last)
			}
			if b < -1 || b >= a.tgt.Threads {
				a.fail(now, "boost target %d out of range", b)
			}
			a.boostShadow = b
		}
	}
	if a.budget != nil && a.winStart != last {
		// A refill boundary fired: the CAS ledger starts a fresh window.
		a.winStart = last
		for i := range a.casCount {
			a.casCount[i] = 0
		}
	}
}

// earliest recomputes, from shadow state only, the first cycle at or
// after which the command satisfies every DDR2 constraint. It is the
// auditor's independent reimplementation of the device model's rule.
func (a *Auditor) earliest(kind dram.Kind, flatBank int) int64 {
	t := &a.tgt.Timing
	cIdx, lb := a.chanOf(flatBank)
	sc := &a.chans[cIdx]
	b := &a.banks[flatBank]
	rank := lb / a.tgt.BanksPerRank
	e := sc.refreshUntil
	switch kind {
	case dram.KindActivate:
		e = maxi(e, b.lastPre+int64(t.TRP))
		e = maxi(e, b.lastAct+int64(t.TRC))
		e = maxi(e, sc.rankLastAct[rank]+int64(t.TRRD))
	case dram.KindRead:
		e = maxi(e, b.lastAct+int64(t.TRCD))
		e = maxi(e, sc.lastCAS+int64(t.TCCD))
		e = maxi(e, sc.lastWriteEnd+int64(t.TWTR))
		e = maxi(e, sc.busFreeAt-int64(t.TCL))
	case dram.KindWrite:
		e = maxi(e, b.lastAct+int64(t.TRCD))
		e = maxi(e, sc.lastCAS+int64(t.TCCD))
		e = maxi(e, sc.busFreeAt-int64(t.TWL))
	case dram.KindPrecharge:
		e = maxi(e, b.lastAct+int64(t.TRAS))
		e = maxi(e, b.lastRead+int64(t.TRTP))
		e = maxi(e, b.writeEnd+int64(t.TWR))
	case dram.KindRefresh:
		lo := cIdx * a.banksPerChan
		for i := lo; i < lo+a.banksPerChan; i++ {
			bb := &a.banks[i]
			e = maxi(e, bb.lastPre+int64(t.TRP))
			e = maxi(e, bb.lastAct+int64(t.TRC))
		}
	}
	return e
}

// BeforeIssue validates one SDRAM command against every invariant, then
// applies it to the shadow state. The controller calls it immediately
// before the device issue and the policy update.
func (a *Auditor) BeforeIssue(cmd Cmd, now int64) {
	a.cmds++
	t := &a.tgt.Timing
	cIdx, lb := a.chanOf(cmd.FlatBank)
	sc := &a.chans[cIdx]
	b := &a.banks[cmd.FlatBank]
	r := cmd.Req

	th, id := -1, uint64(0)
	if r != nil {
		th, id = r.Thread, r.ID
	}
	a.record(histEntry{cycle: now, what: cmd.Kind.String(), bank: cmd.FlatBank, row: cmd.Row, thread: th, id: id, key: cmd.Key})

	// One command per channel per cycle (the shared command bus).
	if sc.lastCmd == now {
		a.fail(now, "second command (%v bank %d) on channel %d in one cycle", cmd.Kind, cmd.FlatBank, cIdx)
	}
	sc.lastCmd = now

	// Bank-state legality.
	switch cmd.Kind {
	case dram.KindActivate:
		if b.open {
			a.fail(now, "activate to open bank %d (row %d)", cmd.FlatBank, b.row)
		}
	case dram.KindRead, dram.KindWrite:
		if !b.open || b.row != cmd.Row {
			a.fail(now, "%v bank %d row %d but shadow open=%v row=%d", cmd.Kind, cmd.FlatBank, cmd.Row, b.open, b.row)
		}
	case dram.KindPrecharge:
		if !b.open {
			a.fail(now, "precharge of closed bank %d", cmd.FlatBank)
		}
	default:
		a.fail(now, "unexpected command kind %v", cmd.Kind)
	}

	// Independent timing validation.
	if e := a.earliest(cmd.Kind, cmd.FlatBank); now < e {
		a.fail(now, "%v bank %d violates timing: issued at %d, shadow-earliest %d", cmd.Kind, cmd.FlatBank, now, e)
	}
	if now < sc.refreshUntil {
		a.fail(now, "%v bank %d inside refresh window ending %d", cmd.Kind, cmd.FlatBank, sc.refreshUntil)
	}

	if r != nil {
		a.checkRequestCmd(cmd, now)
	}

	// Apply to shadow state.
	switch cmd.Kind {
	case dram.KindActivate:
		b.open, b.row, b.lastAct = true, cmd.Row, now
		rank := lb / a.tgt.BanksPerRank
		sc.rankLastAct[rank] = now
	case dram.KindRead:
		b.lastRead, sc.lastCAS = now, now
		end := now + int64(t.TCL) + int64(t.BL2)
		if now+int64(t.TCL) < sc.busFreeAt {
			a.fail(now, "read burst [%d,%d) overlaps busy data bus (free at %d)", now+int64(t.TCL), end, sc.busFreeAt)
		}
		sc.busFreeAt = end
	case dram.KindWrite:
		b.lastWrite, sc.lastCAS = now, now
		end := now + int64(t.TWL) + int64(t.BL2)
		if now+int64(t.TWL) < sc.busFreeAt {
			a.fail(now, "write burst [%d,%d) overlaps busy data bus (free at %d)", now+int64(t.TWL), end, sc.busFreeAt)
		}
		b.writeEnd, sc.lastWriteEnd, sc.busFreeAt = end, end, end
	case dram.KindPrecharge:
		b.open = false
		b.lastPre = now
	}

	// Pending-set maintenance: a CAS retires the request from the bank
	// queue. Write completion accounting waits for AfterIssue, when the
	// controller's own counters have been updated too.
	if r != nil && (cmd.Kind == dram.KindRead || cmd.Kind == dram.KindWrite) {
		a.removePending(cmd.FlatBank, r, now)
	}
	a.checkAge(now)

	// Capture pre-update VTMS registers for AfterIssue's Eq 8/9 check.
	if r != nil && a.vtms != nil {
		v := a.vtms.ThreadVTMS(r.Thread)
		a.preBankR = v.BankR(r.GlobalBank)
		a.preChanR = v.ChanRAt(r.Channel)
	}
}

// checkRequestCmd validates the scheduling decision for a request
// command: the candidate key is fresh, the frozen-key contract holds,
// the command is the request's legal next step, and the bank-scheduler
// selection respects the policy's rule (strict smallest-key, or the FQ
// priority-inversion bound).
func (a *Auditor) checkRequestCmd(cmd Cmd, now int64) {
	r := cmd.Req
	b := &a.banks[cmd.FlatBank]
	if r.GlobalBank != cmd.FlatBank {
		a.fail(now, "request %d (bank %d) issued on bank %d", r.ID, r.GlobalBank, cmd.FlatBank)
	}
	if e := a.out[r.ID]; e == nil {
		a.fail(now, "command for request %d that was never accepted", r.ID)
	} else if e.done {
		a.fail(now, "command for request %d after completion", r.ID)
	}
	if !a.inPending(cmd.FlatBank, r) {
		a.fail(now, "command for request %d not pending on bank %d", r.ID, cmd.FlatBank)
	}

	// The command must be the correct next step for the shadow state.
	state := a.stateFor(r)
	var want dram.Kind
	switch state {
	case core.BankConflict:
		want = dram.KindPrecharge
	case core.BankClosed:
		want = dram.KindActivate
	default:
		if r.IsWrite {
			want = dram.KindWrite
		} else {
			want = dram.KindRead
		}
	}
	if cmd.Kind != want {
		a.fail(now, "request %d in bank state %v needs %v, controller issued %v", r.ID, state, want, cmd.Kind)
	}

	// The candidate key the channel scheduler ranked must match a fresh
	// evaluation — a mismatch means a cached decision went stale.
	if k := core.KeyOf(a.tgt.Policy, r, state); k != cmd.Key {
		a.fail(now, "stale candidate key for request %d: scheduler used %d, fresh Key is %d", r.ID, cmd.Key, k)
	}

	// Frozen-key contract: after the first command, the key is immutable.
	if fk, ok := a.frozen[r.ID]; ok && (!r.KeyFrozen || int64(r.Key) != fk) {
		a.fail(now, "frozen key of request %d changed: %d -> %d (frozen %v)", r.ID, fk, int64(r.Key), r.KeyFrozen)
	}

	// Bank-scheduler selection rule.
	rule, x := a.tgt.Policy.BankRule()
	strict := rule == core.RuleStrict
	openAge := int64(-1)
	if rule == core.RuleFQ {
		if !b.open {
			// Every candidate of a closed bank needs an activate, so
			// first-ready ordering degenerates to smallest-key selection.
			strict = true
		} else if openAge = now - b.lastAct; openAge >= x {
			strict = true
		}
	}
	if rule == core.RuleStrict || rule == core.RuleFQ {
		min := a.minKeyReq(cmd.FlatBank)
		if strict {
			if min != r {
				a.fail(now, "rule %d bank %d: issued request %d (key %d) but minimum-key pending is %d (key %d); bank open %v for %d cycles, bound x=%d",
					rule, cmd.FlatBank, r.ID, cmd.Key, min.ID, core.KeyOf(a.tgt.Policy, min, a.stateFor(min)), b.open, openAge, x)
			}
		} else if min != r {
			// A legal FQ bypass: record the measured inversion window.
			if openAge > a.maxInvWindow {
				a.maxInvWindow = openAge
			}
		}
	}
}

// inPending reports whether r is in the auditor's pending set of bank.
func (a *Auditor) inPending(bank int, r *core.Request) bool {
	for _, x := range a.pend[bank] {
		if x == r {
			return true
		}
	}
	return false
}

// minKeyReq returns the bank's smallest-key pending request under the
// controller's tie-break order (key, arrival, ID).
func (a *Auditor) minKeyReq(bank int) *core.Request {
	var best *core.Request
	var bestKey int64
	for _, r := range a.pend[bank] {
		k := core.KeyOf(a.tgt.Policy, r, a.stateFor(r))
		if best == nil || k < bestKey ||
			(k == bestKey && (r.Arrival < best.Arrival ||
				(r.Arrival == best.Arrival && r.ID < best.ID))) {
			best, bestKey = r, k
		}
	}
	return best
}

// removePending deletes r from the bank's shadow queue.
func (a *Auditor) removePending(bank int, r *core.Request, now int64) {
	q := a.pend[bank]
	for i, x := range q {
		if x == r {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			a.pend[bank] = q[:len(q)-1]
			return
		}
	}
	a.fail(now, "request %d not in shadow pending of bank %d", r.ID, bank)
}

// AfterIssue runs after the device and the policy have applied the
// command: it records the frozen key, recomputes the Equations 8/9 VTMS
// register updates, and cross-checks the shadow bank against the device.
func (a *Auditor) AfterIssue(cmd Cmd, now int64) {
	r := cmd.Req
	if r != nil {
		// The controller freezes the key the first command issued under.
		if _, ok := a.frozen[r.ID]; !ok {
			if !r.KeyFrozen || int64(r.Key) != cmd.Key {
				a.fail(now, "request %d: first command issued under key %d, request holds %d (frozen %v)", r.ID, cmd.Key, int64(r.Key), r.KeyFrozen)
			}
			a.frozen[r.ID] = cmd.Key
		}
		if cmd.Kind == dram.KindRead || cmd.Kind == dram.KindWrite {
			delete(a.frozen, r.ID)
		}
		a.checkVTMSUpdate(cmd, now)
		if a.budget != nil {
			a.checkBudget(cmd, now)
		}
		if cmd.Kind == dram.KindWrite {
			// Writes complete when the CAS issues (posted writes).
			e := a.out[r.ID]
			if e == nil || e.done {
				a.fail(now, "write %d completed twice or never accepted", r.ID)
			}
			e.done = true
			a.acc[r.Thread].writesDone++
			a.checkConservation(r.Thread, now)
		}
	}

	a.checkIntervalPolicy(now)

	// Cross-check the shadow bank against the live device model.
	cIdx, lb := a.chanOf(cmd.FlatBank)
	ch := a.tgt.Chans[cIdx]
	b := &a.banks[cmd.FlatBank]
	row, open := ch.BankOpen(lb)
	if open != b.open || (open && row != b.row) {
		a.fail(now, "shadow bank %d (open=%v row=%d) diverged from device (open=%v row=%d)",
			cmd.FlatBank, b.open, b.row, open, row)
	}
	la, lr, lw, lp := ch.BankTimestamps(lb)
	if la != b.lastAct || lr != b.lastRead || lw != b.lastWrite || lp != b.lastPre {
		a.fail(now, "shadow bank %d timestamps (act %d rd %d wr %d pre %d) diverged from device (act %d rd %d wr %d pre %d)",
			cmd.FlatBank, b.lastAct, b.lastRead, b.lastWrite, b.lastPre, la, lr, lw, lp)
	}
	if free := ch.DataBusFreeAt(); free != a.chans[cIdx].busFreeAt {
		a.fail(now, "shadow data bus free-at %d diverged from device %d", a.chans[cIdx].busFreeAt, free)
	}
}

// checkBudget holds a budgetProvider policy to exact accounting: after
// every request command, the (thread, bank) budget must equal the
// window quota minus the CAS commands the auditor itself counted since
// the last refill boundary — negative when the work-conserving
// scheduler let the thread overdraw, never anything else.
func (a *Auditor) checkBudget(cmd Cmd, now int64) {
	r := cmd.Req
	// Roll the CAS ledger first: a command issuing on the boundary cycle
	// itself spends from the freshly refilled window.
	if last := a.tick.LastTickAt(); a.winStart != last {
		a.winStart = last
		for i := range a.casCount {
			a.casCount[i] = 0
		}
	}
	slot := r.Thread*len(a.banks) + cmd.FlatBank
	if cmd.Kind == dram.KindRead || cmd.Kind == dram.KindWrite {
		a.casCount[slot]++
	}
	got := a.budget.BankBudget(r.Thread, cmd.FlatBank)
	want := a.budget.BudgetQuota() - a.casCount[slot]
	if got != want {
		a.fail(now, "thread %d bank %d budget accounting diverged after %v: policy reports %d, quota %d - %d CAS this window = %d",
			r.Thread, cmd.FlatBank, cmd.Kind, got, a.budget.BudgetQuota(), a.casCount[slot], want)
	}
}

// checkVTMSUpdate recomputes the Table 4 / Equations 8-9 register
// updates from the auditor's own arithmetic and demands the policy's
// registers match exactly (and never decreased).
func (a *Auditor) checkVTMSUpdate(cmd Cmd, now int64) {
	if a.vtms == nil {
		return
	}
	r := cmd.Req
	v := a.vtms.ThreadVTMS(r.Thread)
	inv := v.Share().Reciprocal()
	t := &a.tgt.Timing
	var bankL int
	switch cmd.Kind {
	case dram.KindPrecharge:
		bankL = t.TRP + t.TRAS - t.TRCD - t.TCL
	case dram.KindActivate:
		bankL = t.TRCD
	case dram.KindRead:
		bankL = t.TCL
	case dram.KindWrite:
		bankL = t.TWL
	}
	expBank := maxVT(core.FromCycles(r.Arrival), a.preBankR) + core.VTime(int64(bankL)*inv)
	gotBank := v.BankR(r.GlobalBank)
	if gotBank < a.preBankR {
		a.fail(now, "thread %d bank %d register decreased: %d -> %d", r.Thread, r.GlobalBank, a.preBankR, gotBank)
	}
	if gotBank != expBank {
		a.fail(now, "thread %d bank %d register after %v: got %d, Eq. 8 expects %d (pre %d, arrival %d, L=%d, 1/phi=%d)",
			r.Thread, r.GlobalBank, cmd.Kind, gotBank, expBank, a.preBankR, r.Arrival, bankL, inv)
	}
	if cmd.Kind == dram.KindRead || cmd.Kind == dram.KindWrite {
		expChan := maxVT(expBank, a.preChanR) + core.VTime(int64(t.BL2)*inv)
		gotChan := v.ChanRAt(r.Channel)
		if gotChan < a.preChanR {
			a.fail(now, "thread %d channel %d register decreased: %d -> %d", r.Thread, r.Channel, a.preChanR, gotChan)
		}
		if gotChan != expChan {
			a.fail(now, "thread %d channel %d register after %v: got %d, Eq. 9 expects %d",
				r.Thread, r.Channel, cmd.Kind, gotChan, expChan)
		}
	}
}

// OnRefresh validates a refresh command on the channel.
func (a *Auditor) OnRefresh(chIdx int, now int64) {
	a.cmds++
	sc := &a.chans[chIdx]
	a.record(histEntry{cycle: now, what: "REF", bank: chIdx * a.banksPerChan})
	if sc.lastCmd == now {
		a.fail(now, "refresh and another command on channel %d in one cycle", chIdx)
	}
	sc.lastCmd = now
	lo := chIdx * a.banksPerChan
	for i := lo; i < lo+a.banksPerChan; i++ {
		if a.banks[i].open {
			a.fail(now, "refresh on channel %d with bank %d open", chIdx, i)
		}
	}
	if e := a.earliest(dram.KindRefresh, lo); now < e {
		a.fail(now, "refresh on channel %d at %d violates timing, shadow-earliest %d", chIdx, now, e)
	}
	if !a.tgt.RefreshDisabled {
		last := sc.lastRefresh
		if last == minTime {
			last = 0
		}
		if gap := now - last; gap > int64(a.tgt.Timing.TREF)+refreshSlack {
			a.fail(now, "channel %d refresh interval %d exceeds tREF %d + slack %d", chIdx, gap, a.tgt.Timing.TREF, refreshSlack)
		}
	}
	sc.lastRefresh = now
	sc.refreshUntil = now + int64(a.tgt.Timing.TRFC)
}

// OnReadDone validates a completed read's data burst and accounting.
func (a *Auditor) OnReadDone(r *core.Request, doneAt, now int64) {
	a.record(histEntry{cycle: now, what: "DONE", bank: r.GlobalBank, row: r.Row, thread: r.Thread, id: r.ID})
	if doneAt > now {
		a.fail(now, "read %d delivered before its burst completes (%d)", r.ID, doneAt)
	}
	e := a.out[r.ID]
	if e == nil {
		a.fail(now, "completion of unknown request %d", r.ID)
	}
	if e.done {
		a.fail(now, "request %d completed twice", r.ID)
	}
	if r.IsWrite {
		a.fail(now, "write %d delivered through the read-completion path", r.ID)
	}
	if a.inPending(r.GlobalBank, r) {
		a.fail(now, "read %d completed while still pending (no CAS issued)", r.ID)
	}
	e.done = true
	a.acc[r.Thread].readsDone++
	a.checkConservation(r.Thread, now)
	a.checkAge(now)
}

// checkConservation cross-checks the auditor's per-thread accounting
// against the controller's: accepted = completed + in-flight, with
// matching occupancy counters.
func (a *Auditor) checkConservation(thread int, now int64) {
	if a.tgt.Totals == nil {
		return
	}
	ac := &a.acc[thread]
	tt := a.tgt.Totals(thread)
	if tt.ReadsAccepted != ac.readsAcc || tt.ReadsDone != ac.readsDone ||
		tt.WritesAccepted != ac.writesAcc || tt.WritesDone != ac.writesDone {
		a.fail(now, "thread %d accounting diverged: controller reads %d/%d writes %d/%d, audit reads %d/%d writes %d/%d",
			thread, tt.ReadsDone, tt.ReadsAccepted, tt.WritesDone, tt.WritesAccepted,
			ac.readsDone, ac.readsAcc, ac.writesDone, ac.writesAcc)
	}
	if int64(tt.ReadOcc) != ac.readsAcc-ac.readsDone {
		a.fail(now, "thread %d read occupancy %d != accepted-completed %d (request leak)",
			thread, tt.ReadOcc, ac.readsAcc-ac.readsDone)
	}
	if int64(tt.WriteOcc) != ac.writesAcc-ac.writesDone {
		a.fail(now, "thread %d write occupancy %d != accepted-completed %d (request leak)",
			thread, tt.WriteOcc, ac.writesAcc-ac.writesDone)
	}
}

// Finish runs the end-of-simulation checks: final conservation for
// every thread and the starvation bound at the final cycle.
func (a *Auditor) Finish(now int64) {
	for t := 0; t < a.tgt.Threads; t++ {
		a.checkConservation(t, now)
	}
	a.checkAge(now)
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxVT(a, b core.VTime) core.VTime {
	if a > b {
		return a
	}
	return b
}
