package core

import (
	"fmt"

	"repro/internal/dram"
)

// BankRule selects how a per-bank scheduler picks the request whose next
// SDRAM command it offers to the channel scheduler.
type BankRule uint8

const (
	// RuleFirstReady: order candidates (ready, CAS, key); classic
	// first-ready scheduling. Used by FR-FCFS and FR-VFTF.
	RuleFirstReady BankRule = iota
	// RuleFQ: first-ready ordering while the bank is closed or within
	// the first x cycles after an activate; afterwards the bank
	// scheduler selects the request with the smallest key and waits for
	// its first command to become ready (Section 3.3). Used by FQ-VFTF.
	RuleFQ
	// RuleStrict: always select the request with the smallest key and
	// wait for it; pure in-order service (FCFS / pure EDF).
	RuleStrict
)

// Policy is a memory scheduling algorithm: it supplies the priority key
// used by the bank and channel schedulers (after the shared "ready
// commands first, CAS commands first" levels) and observes issued
// commands to maintain any internal state (VTMS registers).
//
// Smaller keys are higher priority. The controller breaks key ties by
// arrival time and then request ID.
//
// # Key purity contract
//
// The event-driven controller caches per-bank scheduling decisions and
// re-evaluates a bank only when something that can change its decision
// happens. For that to be sound, Key must be a pure function of
//
//   - the request's own immutable fields (thread, address, arrival,
//     bank coordinates) and the BankState argument, and
//   - policy state that changes only inside OnIssue or through an
//     explicit reassignment entry point (core.ShareSetter /
//     core.ChannelSetter).
//
// Key must not read clocks, counters, or any state mutated outside
// those two paths, and Key must not write the request; the controller
// freezes: it stores the key a request's first command issued under in
// Request.Key, and every reader goes through KeyOf, so neither Key nor
// OnIssue touches Request.Key or its frozen flag (FR-VFTF-arrival, which
// freezes at first evaluation by design, is the one declared
// exception; TestKeyIsPureAndOnIssueLeavesTheRequest). Additionally,
// OnIssue for a request of thread t on channel c may only mutate state
// that feeds Key for requests of the same thread t on the same channel
// c — the VTMS policies satisfy this because their registers are per
// (thread, bank) and per (thread, channel) and Equations 8-9 update
// only the issuing thread's, and the interval policies because OnIssue
// only stages what Tick later applies — so the controller clears exactly
// the issuing thread's picks on the issuing channel
// (TestOnIssueMovesOnlyIssuingThreadKeys holds every shipped policy to
// it). A future policy that couples threads or channels through shared
// mutable state would need the controller's whole-scheduler reset after
// each such OnIssue instead. Share reassignment already takes that path:
// memctrl.Controller.SetShare resets every bank after SetThreadShare,
// and interval-based policies (PolicyTicker) get the same treatment: the
// controller runs their window-boundary work through Tick and resets
// everything when it reports a Key-feeding change.
//
// # Keys that follow arrival
//
// A policy may also declare, through ArrivalMonotone, that its keys
// follow arrival: for any two unfrozen requests of one (thread, bank,
// IsWrite, BankState) with arrivals a1 <= a2, Key(r1) <= Key(r2), in
// every policy state OnIssue, Tick and the reassignment entry points can
// reach. Equation 7 has this shape — max{a, B_j.R} never decreases as a
// grows — and so does every arrival-plus-penalty key. The controller's
// transaction queues are in arrival order, so for such a policy it
// evaluates only the first unfrozen request of each (command class,
// read/write) group of a queue, since no later one can rank before it,
// and reads every frozen key (TestKeysFollowArrival). FR-VFTF-arrival,
// whose key is fixed at its first evaluation, declares false and has
// every waiting request evaluated.
type Policy interface {
	// Name identifies the policy in reports ("FR-FCFS", "FQ-VFTF", ...).
	Name() string

	// Key returns the request's priority key given the state its bank
	// would present if the request began service now. The controller
	// asks only while the request's key is not frozen (KeyOf).
	Key(r *Request, state BankState) int64

	// OnIssue informs the policy that one SDRAM command of request r was
	// issued (kind is never CmdNone or CmdRefresh).
	OnIssue(r *Request, kind CmdKind)

	// BankRule returns the bank scheduler selection rule and, for
	// RuleFQ, the priority-inversion bound x in cycles.
	BankRule() (rule BankRule, x int64)
}

// ArrivalMonotone is implemented by policies that declare whether their
// keys follow arrival (see the Policy contract). The controller asks
// once, at construction.
type ArrivalMonotone interface {
	KeysFollowArrival() bool
}

// ---------------------------------------------------------------------
// FR-FCFS (baseline) and FCFS
// ---------------------------------------------------------------------

// FRFCFS is the first-ready first-come-first-serve baseline: ready
// commands first, CAS commands first, then earliest arrival time.
type FRFCFS struct{}

// NewFRFCFS returns the FR-FCFS baseline policy.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements Policy.
func (*FRFCFS) Name() string { return "FR-FCFS" }

// Key implements Policy: earliest arrival time first.
func (*FRFCFS) Key(r *Request, _ BankState) int64 { return r.Arrival }

// OnIssue implements Policy (no internal state).
func (*FRFCFS) OnIssue(_ *Request, _ CmdKind) {}

// BankRule implements Policy.
func (*FRFCFS) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// KeysFollowArrival implements ArrivalMonotone: the key is the arrival.
func (*FRFCFS) KeysFollowArrival() bool { return true }

// FCFS services requests strictly in arrival order with no first-ready
// reordering; it is the in-order lower bound occasionally used as a
// sanity reference.
type FCFS struct{}

// NewFCFS returns the strict in-order policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Policy.
func (*FCFS) Name() string { return "FCFS" }

// Key implements Policy.
func (*FCFS) Key(r *Request, _ BankState) int64 { return r.Arrival }

// OnIssue implements Policy.
func (*FCFS) OnIssue(_ *Request, _ CmdKind) {}

// BankRule implements Policy.
func (*FCFS) BankRule() (BankRule, int64) { return RuleStrict, 0 }

// KeysFollowArrival implements ArrivalMonotone: the key is the arrival.
func (*FCFS) KeysFollowArrival() bool { return true }

// ---------------------------------------------------------------------
// Virtual finish-time policies
// ---------------------------------------------------------------------

// vftBase holds the per-thread VTMS registers shared by the VFTF-family
// policies and implements key computation and register updates.
type vftBase struct {
	vtms []*VTMS
}

func newVFTBase(shares []Share, nbanks int, t dram.Timing) vftBase {
	v := vftBase{vtms: make([]*VTMS, len(shares))}
	for i, s := range shares {
		v.vtms[i] = NewVTMS(i, s, nbanks, t)
	}
	return v
}

// ThreadVTMS exposes a thread's VTMS registers (for tests and reports).
func (b *vftBase) ThreadVTMS(thread int) *VTMS { return b.vtms[thread] }

// SetChannels resizes every thread's per-channel registers; the
// controller calls it when configured with more than one memory
// channel (a beyond-the-paper extension).
func (b *vftBase) SetChannels(n int) {
	for _, v := range b.vtms {
		v.SetChannels(n)
	}
}

// ChannelSetter is implemented by policies whose bookkeeping has a
// per-channel dimension.
type ChannelSetter interface {
	SetChannels(n int)
}

// SetThreadShare reassigns one thread's bandwidth share at run time.
func (b *vftBase) SetThreadShare(thread int, s Share) {
	b.vtms[thread].SetShare(s)
}

// ShareSetter is implemented by policies whose shares can be reassigned
// at run time (the VFTF family; FR-FCFS has no shares).
type ShareSetter interface {
	SetThreadShare(thread int, s Share)
}

// ThreadShare returns a thread's currently allocated share.
func (b *vftBase) ThreadShare(thread int) Share { return b.vtms[thread].Share() }

// ShareGetter is implemented by policies that know each thread's
// allocated share phi (the VFTF family). Observers — the fairness
// monitor — read shares through it; shareless policies like FR-FCFS
// fall back to the paper's static equal allocation 1/N.
type ShareGetter interface {
	ThreadShare(thread int) Share
}

// Key returns the request's virtual finish-time: Equation 7 evaluated
// against the current registers and bank state.
func (b *vftBase) Key(r *Request, state BankState) int64 {
	return int64(b.vtms[r.Thread].FinishTime(r.Arrival, r.GlobalBank, r.Channel, r.IsWrite, state))
}

// OnIssue applies the Table 4 / Equations 8-9 register updates.
func (b *vftBase) OnIssue(r *Request, kind CmdKind) {
	b.vtms[r.Thread].OnCommandIssue(kind, r.Arrival, r.GlobalBank, r.Channel, r.IsWrite)
}

// KeysFollowArrival implements ArrivalMonotone: Equation 7, and the
// start time max{a, B_j.R} of FR-VSTF, never decrease as a grows.
func (*vftBase) KeysFollowArrival() bool { return true }

// FRVFTF prioritizes requests earliest-virtual-finish-time first with
// plain first-ready bank scheduling (no protection against bank priority
// chaining); the paper's intermediate design point.
type FRVFTF struct {
	vftBase
}

// NewFRVFTF returns an FR-VFTF policy for threads with the given shares
// over nbanks banks of a memory system with timing t.
func NewFRVFTF(shares []Share, nbanks int, t dram.Timing) *FRVFTF {
	return &FRVFTF{vftBase: newVFTBase(shares, nbanks, t)}
}

// Name implements Policy.
func (*FRVFTF) Name() string { return "FR-VFTF" }

// BankRule implements Policy.
func (*FRVFTF) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// FQVFTF is the full FQ memory scheduler: virtual-finish-time-first
// priority plus the Section 3.3 FQ bank scheduling algorithm that bounds
// priority inversion blocking time at x cycles (the paper uses x = tRAS).
type FQVFTF struct {
	vftBase
	x int64
}

// NewFQVFTF returns the FQ memory scheduler with the paper's bound
// x = tRAS.
func NewFQVFTF(shares []Share, nbanks int, t dram.Timing) *FQVFTF {
	return NewFQVFTFBound(shares, nbanks, t, int64(t.TRAS))
}

// NewFQVFTFBound returns the FQ memory scheduler with an explicit
// priority-inversion bound x (for the ablation sweep).
func NewFQVFTFBound(shares []Share, nbanks int, t dram.Timing, x int64) *FQVFTF {
	if x < 0 {
		panic(fmt.Sprintf("core: negative FQ inversion bound %d", x))
	}
	return &FQVFTF{vftBase: newVFTBase(shares, nbanks, t), x: x}
}

// Name implements Policy.
func (*FQVFTF) Name() string { return "FQ-VFTF" }

// BankRule implements Policy.
func (p *FQVFTF) BankRule() (BankRule, int64) { return RuleFQ, p.x }

// ---------------------------------------------------------------------
// Virtual start-time ablation
// ---------------------------------------------------------------------

// FRVSTF prioritizes by earliest virtual *start*-time (the Section 2.3
// alternative ordering); implemented as an ablation of the finish-time
// choice.
type FRVSTF struct {
	vftBase
}

// NewFRVSTF returns the start-time-first ablation policy.
func NewFRVSTF(shares []Share, nbanks int, t dram.Timing) *FRVSTF {
	return &FRVSTF{vftBase: newVFTBase(shares, nbanks, t)}
}

// Name implements Policy.
func (*FRVSTF) Name() string { return "FR-VSTF" }

// Key implements Policy: the bank service virtual start-time
// max{a, B_j.R} (Equation 3 in register form).
func (p *FRVSTF) Key(r *Request, _ BankState) int64 {
	return int64(maxVT(FromCycles(r.Arrival), p.vtms[r.Thread].BankR(r.GlobalBank)))
}

// BankRule implements Policy.
func (*FRVSTF) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }
