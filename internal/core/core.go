// Package core implements the paper's primary contribution: the Fair
// Queuing (FQ) memory scheduler of Nesbit, Aggarwal, Laudon, and Smith,
// "Fair Queuing Memory Systems" (MICRO 2006).
//
// The package provides:
//
//   - Virtual Time Memory System (VTMS) bookkeeping: per-thread virtual
//     finish-time registers for every bank and for the channel, together
//     with the finish-time function (Eq. 7) and the per-command update
//     functions (Eqs. 8 and 9, Table 4).
//   - Scheduling policies that plug into the memory controller: FCFS,
//     FR-FCFS (the baseline), FR-VFTF (virtual finish-time priority
//     without the FQ bank rule), and FQ-VFTF (the full FQ memory
//     scheduler with the Section 3.3 priority-inversion bound).
//
// Virtual times are kept in 48.16 fixed point (type VTime) so that share
// reciprocals (1/phi) are exact for every rational share and arithmetic
// is deterministic across platforms.
package core

import (
	"fmt"

	"repro/internal/dram"
)

// VTShift is the number of fractional bits in a VTime.
const VTShift = 16

// VTime is a virtual time in fixed point: the high 48 bits are whole
// memory cycles, the low VTShift bits are fractional cycles.
type VTime int64

// FromCycles converts a whole cycle count into a VTime.
func FromCycles(c int64) VTime { return VTime(c << VTShift) }

// Cycles returns the whole-cycle part of a VTime, rounding down.
func (v VTime) Cycles() int64 { return int64(v) >> VTShift }

// Float returns the virtual time in cycles as a float64 (for reporting).
func (v VTime) Float() float64 { return float64(v) / float64(int64(1)<<VTShift) }

// Share is a thread's allocated fraction phi of the memory system,
// expressed as the rational Num/Den. A thread allocated Share{1, 4} is
// modeled as owning a private memory system running at one quarter of
// the physical memory frequency.
type Share struct {
	Num, Den int
}

// EqualShare returns the share 1/n, the static equal allocation the
// paper evaluates for an n-processor CMP.
func EqualShare(n int) Share { return Share{1, n} }

// Valid reports whether the share is a proper fraction 0 < Num/Den <= 1.
func (s Share) Valid() bool {
	return s.Num > 0 && s.Den > 0 && s.Num <= s.Den
}

// Reciprocal returns 1/phi in fixed point, i.e. the factor by which a
// request's physical service time is scaled into virtual service time.
func (s Share) Reciprocal() int64 {
	return (int64(s.Den) << VTShift) / int64(s.Num)
}

// Float returns phi as a float64.
func (s Share) Float() float64 { return float64(s.Num) / float64(s.Den) }

func (s Share) String() string { return fmt.Sprintf("%d/%d", s.Num, s.Den) }

// CmdKind identifies an SDRAM command: the device's own enumeration
// (dram.Kind), so the controller hands a policy the kind it issued.
type CmdKind = dram.Kind

const (
	CmdNone      = dram.KindNone
	CmdActivate  = dram.KindActivate
	CmdRead      = dram.KindRead
	CmdWrite     = dram.KindWrite
	CmdPrecharge = dram.KindPrecharge
	CmdRefresh   = dram.KindRefresh
)

// BankState describes the state of a DRAM bank relative to one request,
// which determines the request's bank service requirement (Table 3).
type BankState uint8

const (
	// BankConflict: the bank has a different row open; service requires
	// precharge + activate + column access.
	BankConflict BankState = iota
	// BankClosed: the bank is precharged; service requires activate +
	// column access.
	BankClosed
	// BankHit: the request's row is already open; service is just the
	// column access.
	BankHit
)

func (b BankState) String() string {
	switch b {
	case BankConflict:
		return "conflict"
	case BankClosed:
		return "closed"
	case BankHit:
		return "hit"
	}
	return fmt.Sprintf("bankstate(%d)", uint8(b))
}

// Request is one memory request inside the memory controller. The
// scheduler-facing state (arrival time, frozen virtual finish-time) lives
// here; the controller owns the lifecycle.
type Request struct {
	// ID is a controller-unique, monotonically increasing identifier.
	// It is the final FCFS tiebreak for every policy.
	ID uint64

	// Thread is the hardware thread index that issued the request.
	Thread int

	// Addr is the physical line address.
	Addr uint64

	// IsWrite distinguishes write-buffer entries from reads.
	IsWrite bool

	// Arrival is the virtual-clock cycle the request arrived at the
	// memory controller (the paper's a_i^k; the virtual clock is the
	// real clock paused during refresh).
	Arrival int64

	// ArrivalReal is the real cycle of arrival, used for latency
	// statistics (identical to Arrival except across refresh periods).
	ArrivalReal int64

	// Decoded address components.
	Rank, Bank, Row, Col int

	// Channel is the memory channel index (0 on single-channel
	// systems, which is all the paper evaluates; multi-channel support
	// is this implementation's future-work extension).
	Channel int

	// GlobalBank is the flat bank index across channels and ranks:
	// (channel*ranks + rank)*banksPerRank + bank.
	GlobalBank int

	// Key is the request's policy priority key, valid when KeyFrozen: the
	// key its first SDRAM command issued under (virtual finish-time under
	// the VFTF family, virtual start-time under FR-VSTF, in virtual-time
	// fixed point). The memory controller sets both fields at that first
	// command — the paper's deferred finish-time decision, Section 3.2 —
	// and nothing changes them afterwards; the audit layer enforces it.
	// Until then the key is Policy.Key evaluated on demand. Read through
	// KeyOf.
	Key       VTime
	KeyFrozen bool

	// Issued counts SDRAM commands already issued for this request.
	Issued int

	// Slot is the request's index in the controller's arena, unique among
	// live requests, for observers to key side tables by. Set by the
	// controller at acceptance and on restore; not checkpointed.
	Slot int32
}

// KeyOf is the one statement of the freeze rule: the request's frozen
// key once its first command has issued, otherwise p.Key under the state
// its bank would present now. Everything that ranks requests (the bank
// scheduler, the auditor, the reference selectors in tests) reads keys
// through it, so a policy states its key formula once and never looks at
// Request.Key.
func KeyOf(p Policy, r *Request, state BankState) int64 {
	if r.KeyFrozen {
		return int64(r.Key)
	}
	return p.Key(r, state)
}
