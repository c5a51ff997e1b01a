package trace

import (
	"fmt"

	"repro/internal/addrmap"
)

// Adversarial and heterogeneous agents. The paper's QoS claim — a
// thread with share phi performs at least as well as on a private
// phi-fraction memory system *regardless of what the other threads
// do* — is only testable against workloads engineered to break it.
// This file defines those workloads: targeted antagonist address
// patterns that concentrate fire on a victim's banks and rows (the
// streak-y row-hit hogs that motivate Blacklisting-style schedulers),
// a latency-tolerant accelerator-style streaming agent in the
// heterogeneous-systems tradition, and a diurnal multi-tenant arrival
// envelope. The isolation property suite (internal/sim) points the
// interference-attribution cube at them and pins the paper's Section 5
// bound as a regression test.

// AgentKind selects the core model that executes a profile.
type AgentKind uint8

const (
	// AgentOoO is the default latency-sensitive out-of-order core
	// (the paper's Table 5 processor).
	AgentOoO AgentKind = iota
	// AgentStream is a latency-tolerant accelerator-style core: deep
	// request queues, wide dispatch, and no sensitivity to individual
	// load latency (cpu.StreamConfig / cache.StreamHierarchyConfig).
	AgentStream
)

func (k AgentKind) String() string {
	switch k {
	case AgentOoO:
		return "ooo"
	case AgentStream:
		return "stream"
	}
	return fmt.Sprintf("agent(%d)", uint8(k))
}

// AttackKind selects a targeted antagonist address pattern. A non-zero
// Attack replaces the profile's mixture-model address selection with a
// deterministic geometry-aware walk; instruction mix, burst shaping,
// and memory intensity still follow the profile's other fields.
type AttackKind uint8

const (
	// AttackNone is the ordinary mixture model.
	AttackNone AttackKind = iota
	// AttackRowThrash alternates between two rows of the target bank
	// column by column, so every access closes the row the previous
	// one opened: a worst-case row-buffer conflict stream inside the
	// victim's bank.
	AttackRowThrash
	// AttackBankHammer walks a fresh row of the target bank on every
	// access: the bank serializes on its row-cycle time and the
	// victim's requests to it queue behind the attacker's.
	AttackBankHammer
	// AttackBusHog streams consecutive lines with maximal burst
	// length: near-perfect row locality across every bank and channel,
	// saturating the data bus (and FR-FCFS's row-hit priority).
	AttackBusHog
)

func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackRowThrash:
		return "rowthrash"
	case AttackBankHammer:
		return "bankhammer"
	case AttackBusHog:
		return "bushog"
	}
	return fmt.Sprintf("attack(%d)", uint8(k))
}

// Antagonists returns the adversarial and heterogeneous agent
// profiles. They resolve through ByName like the SPEC suite but are
// deliberately kept out of Suite(), Names(), and the Figure 4
// calibration ordering.
func Antagonists() []Profile {
	return []Profile{
		{
			// Accelerator-style streaming agent: bandwidth-hungry,
			// latency-tolerant (AgentStream selects the deep-queue core
			// model), eight concurrent streams over a 16MB footprint.
			Name: "stream", Agent: AgentStream,
			MemFrac: 0.40, StoreFrac: 0.30,
			SeqFrac: 0.95, ChaseFrac: 0, Streams: 8, BurstLen: 64,
			WorkingSetKB: 16384, FpFrac: 0.3, DepFrac: 0.05,
			SoloUtilTarget: 0.90,
		},
		{
			// Row-buffer thrasher aimed at bank 0: every access forces
			// the bank to close the row its predecessor opened.
			Name: "rowthrash", Attack: AttackRowThrash, TargetBank: 0,
			MemFrac: 0.45, StoreFrac: 0, BurstLen: 32,
			WorkingSetKB: 4096, FpFrac: 0, DepFrac: 0.05,
			SoloUtilTarget: 0.30,
		},
		{
			// Bank-conflict attacker aimed at bank 0: a fresh row every
			// access, serializing the bank on tRC.
			Name: "bankhammer", Attack: AttackBankHammer, TargetBank: 0,
			MemFrac: 0.45, StoreFrac: 0, BurstLen: 32,
			WorkingSetKB: 4096, FpFrac: 0, DepFrac: 0.05,
			SoloUtilTarget: 0.30,
		},
		{
			// Bus hog: maximal-burst-length streaming, the pattern
			// FR-FCFS's row-hit priority rewards the most.
			Name: "bushog", Attack: AttackBusHog,
			MemFrac: 0.92, StoreFrac: 0.35, BurstLen: 256,
			WorkingSetKB: 32768, FpFrac: 0, DepFrac: 0.05,
			SoloUtilTarget: 0.95,
		},
		{
			// Diurnal multi-tenant streamer: 40% of every 60k-instruction
			// period at full intensity, near-idle in between. Models the
			// bursty arrival process of a consolidated tenant.
			Name: "diurnal", Agent: AgentStream,
			PhasePeriod: 60_000, PhaseDutyPct: 40, PhaseLowMemFrac: 0.005,
			MemFrac: 0.50, StoreFrac: 0.25,
			SeqFrac: 0.90, ChaseFrac: 0, Streams: 4, BurstLen: 48,
			WorkingSetKB: 16384, FpFrac: 0.3, DepFrac: 0.05,
			SoloUtilTarget: 0.50,
		},
	}
}

// AntagonistNames returns the antagonist profile names.
func AntagonistNames() []string {
	as := Antagonists()
	out := make([]string, len(as))
	for i, p := range as {
		out[i] = p.Name
	}
	return out
}

// initAttack aims the profile's attack pattern through the mapper the
// memory controller decodes with: TargetBank is a flat bank within a
// channel (rank*banks per rank + bank), and every address the pattern
// emits is m.Encode of a coordinate in that bank, so the aim is exact
// under any mapping.
func (g *Generator) initAttack(m addrmap.Mapper) error {
	p := g.p
	if p.Attack == AttackNone {
		return nil
	}
	geom := m.Geometry()
	lim := geom.Bounds()
	if p.TargetBank < 0 || p.TargetBank >= geom.Banks() {
		return fmt.Errorf("trace: %s: target bank %d outside %d banks", p.Name, p.TargetBank, geom.Banks())
	}
	g.atkMap = m
	g.atkAim = addrmap.Coord{Rank: p.TargetBank / lim.Bank, Bank: p.TargetBank % lim.Bank}
	g.atkChans = uint64(lim.Channel)
	g.atkCols = uint64(lim.Col)

	// The thread's private rows: its region of line addresses starts in
	// the row its base decodes to and spans one row per stripe (the
	// lines that share a row index across every channel and bank).
	stripe := geom.Lines() / uint64(lim.Row)
	rowsPerThread := uint64(regionLines) / stripe
	rows := uint64(p.AttackRows)
	if rows == 0 || rows > rowsPerThread {
		rows = rowsPerThread
	}
	if rows > uint64(lim.Row) {
		rows = uint64(lim.Row)
	}
	if rows < 2 {
		rows = 2
	}
	g.atkRows = rows
	g.atkRowBase = uint64(m.Decode(g.base).Row)
	return nil
}

// atkEncode asks the mapper for the line address of (row, col, channel)
// in the target bank.
func (g *Generator) atkEncode(row, col, ch uint64) uint64 {
	c := g.atkAim
	c.Row, c.Col, c.Channel = int(row), int(col), int(ch)
	return g.atkMap.Encode(c)
}

// attackAddr emits the next line address of the profile's attack
// pattern. Every pattern is a pure function of the monotone attackStep
// cursor (checkpointed alongside the rng), visits each line at most
// once per full cycle of at least atkRows*cols lines — far beyond the
// cache hierarchy, so the stream always reaches DRAM — and rotates
// across channels so multi-channel systems see the same per-bank
// pressure.
func (g *Generator) attackAddr() uint64 {
	k := g.attackStep
	g.attackStep++
	switch g.p.Attack {
	case AttackRowThrash:
		// Column-interleaved alternation between the two rows of the
		// current pair: A0 B0 A1 B1 ... A127 B127, then the next pair.
		ch := k % g.atkChans
		j := k / g.atkChans
		episode := 2 * g.atkCols
		within := j % episode
		col := within / 2
		pair := (j / episode) % (g.atkRows / 2)
		row := g.atkRowBase + 2*pair + within&1
		return g.atkEncode(row, col, ch)
	case AttackBankHammer:
		// A fresh row on every access; the column advances once per
		// full row sweep so lines are never reused within the sweep.
		ch := k % g.atkChans
		j := k / g.atkChans
		row := g.atkRowBase + j%g.atkRows
		col := (j / g.atkRows) % g.atkCols
		return g.atkEncode(row, col, ch)
	default: // AttackBusHog
		// Plain sequential walk over the working set: consecutive line
		// addresses interleave channels and columns first, giving
		// maximal-burst-length row hits that round-robin every bank.
		return g.base + k%uint64(g.wsLines)
	}
}
