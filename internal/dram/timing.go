// Package dram implements a cycle-accurate DDR2 SDRAM device model: the
// timing constraints of Table 6 of the paper, per-bank state machines,
// rank-level constraints, the shared command/data channel, and refresh.
//
// All times are measured in processor cycles, matching the paper's
// Table 6 ("Micron DDR2-800 timing constraints (measured in processor
// cycles)"). The model supports uniform time scaling, which is how the
// paper constructs the private virtual-time baseline systems ("a private
// memory system running at phi of the frequency of the shared physical
// memory system").
package dram

import "fmt"

// Timing holds the DDR2 timing constraints of the paper's Table 6, in
// processor cycles.
type Timing struct {
	TRCD int // activate to read
	TCL  int // read to data bus valid (CAS latency)
	TWL  int // write to data bus valid (write latency)
	TCCD int // CAS to CAS (a CAS is a read or a write)
	TWTR int // write to read turnaround
	TWR  int // internal write to precharge (write recovery)
	TRTP int // internal read to precharge
	TRP  int // precharge to activate
	TRRD int // activate to activate, different banks (same rank)
	TRAS int // activate to precharge
	TRC  int // activate to activate, same bank
	BL2  int // burst length / 2: data bus cycles per cache line
	TRFC int // refresh to activate
	TREF int // maximum refresh-to-refresh interval
}

// DDR2800 returns the Micron DDR2-800 constraints of Table 6.
func DDR2800() Timing {
	return Timing{
		TRCD: 5,
		TCL:  5,
		TWL:  4,
		TCCD: 2,
		TWTR: 3,
		TWR:  6,
		TRTP: 3,
		TRP:  5,
		TRRD: 3,
		TRAS: 18,
		TRC:  22,
		BL2:  4,
		TRFC: 510,
		TREF: 280000,
	}
}

// Scale returns the timing constraints uniformly time scaled by the
// integer factor k, i.e. the constraints of a private memory system
// running at 1/k of the physical frequency. The paper's two- and
// four-processor baselines are Scale(2) and Scale(4).
func (t Timing) Scale(k int) Timing {
	if k < 1 {
		panic(fmt.Sprintf("dram: invalid scale factor %d", k))
	}
	return Timing{
		TRCD: t.TRCD * k,
		TCL:  t.TCL * k,
		TWL:  t.TWL * k,
		TCCD: t.TCCD * k,
		TWTR: t.TWTR * k,
		TWR:  t.TWR * k,
		TRTP: t.TRTP * k,
		TRP:  t.TRP * k,
		TRRD: t.TRRD * k,
		TRAS: t.TRAS * k,
		TRC:  t.TRC * k,
		BL2:  t.BL2 * k,
		TRFC: t.TRFC * k,
		TREF: t.TREF, // the refresh *interval* is wall-clock, not device speed
	}
}

// Validate reports an error when the constraints are internally
// inconsistent (e.g. a row cannot be precharged before its restore time).
func (t Timing) Validate() error {
	switch {
	case t.TRCD <= 0 || t.TCL <= 0 || t.TWL <= 0 || t.BL2 <= 0:
		return fmt.Errorf("dram: non-positive core latency in %+v", t)
	// Table 4's precharge share tRP + tRAS - tRCD - tCL (CmdBankService)
	// must be at least tRP, or a precharge would move a VTMS bank
	// register backwards (Eq. 8).
	case t.TRAS < t.TRCD+t.TCL:
		return fmt.Errorf("dram: tRAS (%d) < tRCD + tCL (%d + %d)", t.TRAS, t.TRCD, t.TCL)
	// Note: the paper's Table 6 itself has tRC (22) < tRAS+tRP (23), so
	// only the weaker tRC >= tRAS is enforced; the per-command checks
	// still respect both constraints independently.
	case t.TRC < t.TRAS:
		return fmt.Errorf("dram: tRC (%d) < tRAS (%d)", t.TRC, t.TRAS)
	case t.TRFC <= 0 || t.TREF <= 0:
		return fmt.Errorf("dram: non-positive refresh timing in %+v", t)
	}
	// The spacing constraints only ever delay a command. A negative one
	// would let it issue before its cause, and a negative tRP makes the
	// precharge share of a request's bank service negative too, which
	// moves a VTMS bank register backwards (Eq. 8).
	for _, c := range []struct {
		name     string
		val, min int
	}{
		{"tRP", t.TRP, 1}, {"tRRD", t.TRRD, 1}, {"tCCD", t.TCCD, 1},
		{"tWTR", t.TWTR, 0}, {"tWR", t.TWR, 0}, {"tRTP", t.TRTP, 0},
	} {
		if c.val < c.min {
			return fmt.Errorf("dram: %s (%d) must be at least %d", c.name, c.val, c.min)
		}
	}
	return nil
}

// BankServiceRead returns the Table 3 bank service requirement of a read
// request that begins service with the bank in the given state: the time
// to (precharge,) (activate,) and read the data out of the row buffer.
// state is 0=conflict, 1=closed, 2=hit, matching core.BankState.
func (t Timing) BankServiceRead(state int) int {
	switch state {
	case 0:
		return t.TRP + t.TRCD + t.TCL
	case 1:
		return t.TRCD + t.TCL
	default:
		return t.TCL
	}
}

// BankServiceWrite is the write analogue of BankServiceRead, using the
// write latency tWL for the column access (Table 4 uses tWL for writes).
func (t Timing) BankServiceWrite(state int) int {
	switch state {
	case 0:
		return t.TRP + t.TRCD + t.TWL
	case 1:
		return t.TRCD + t.TWL
	default:
		return t.TWL
	}
}

// CmdBankService returns the Table 4 per-command VTMS bank service times.
// Precharge accounts for the extra bank occupancy between an activate
// and a precharge not covered by the activate/read/write commands.
func (t Timing) CmdBankService(isWrite bool) (precharge, activate, cas int) {
	precharge = t.TRP + (t.TRAS - t.TRCD - t.TCL)
	activate = t.TRCD
	if isWrite {
		cas = t.TWL
	} else {
		cas = t.TCL
	}
	return precharge, activate, cas
}

// ChannelService returns the Table 4 channel service of a CAS command:
// BL/2 data bus cycles. RAS commands consume no channel service.
func (t Timing) ChannelService() int { return t.BL2 }
