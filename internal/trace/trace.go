// Package trace generates deterministic synthetic instruction traces
// standing in for the paper's twenty 100M-instruction SPEC 2000 sampled
// traces. Each benchmark is a Profile: a parameterized mixture of
// sequential streaming, random access within a working set, and
// dependent pointer chasing, plus compute instruction mix. Profiles are
// calibrated so that the solo data-bus utilizations reproduce the
// paper's Figure 4 spectrum (art most aggressive ... crafty least) and
// the qualitative characters the evaluation leans on (art = streaming
// with high memory-level parallelism, vpr = latency-sensitive pointer
// chasing with little memory parallelism, crafty = compute bound).
package trace

import (
	"fmt"

	"repro/internal/addrmap"
)

// Kind is an instruction class.
type Kind uint8

const (
	// KindInt is a 1-cycle integer operation.
	KindInt Kind = iota
	// KindFp is a multi-cycle floating-point operation.
	KindFp
	// KindLoad is a data load.
	KindLoad
	// KindStore is a data store.
	KindStore
	// KindBranch is a 1-cycle branch.
	KindBranch
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFp:
		return "fp"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instr is one generated instruction.
type Instr struct {
	Kind Kind

	// Addr is the line address for loads and stores.
	Addr uint64

	// Dep is the distance (in instructions, >= 1) back to the producer
	// this instruction waits on; 0 means no register dependence. A load
	// whose Dep names an earlier load models address dependence
	// (pointer chasing): it cannot issue until that load completes.
	Dep int

	// Lat is the execution latency in cycles once operands are ready
	// (loads/stores use the memory system instead).
	Lat int
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string

	// MemFrac is the fraction of instructions that touch memory (at
	// line granularity; intra-line spatial hits are abstracted away).
	MemFrac float64
	// StoreFrac is the fraction of memory instructions that are stores.
	StoreFrac float64

	// Access pattern mixture (must sum to <= 1; the remainder is random
	// access within the working set):
	// SeqFrac streams sequentially (high row-buffer locality),
	// ChaseFrac performs dependent pointer chasing (no memory
	// parallelism).
	SeqFrac   float64
	ChaseFrac float64

	// Streams is the number of concurrent sequential streams (bank-level
	// parallelism of the streaming portion).
	Streams int

	// BurstLen makes memory accesses arrive in back-to-back bursts of
	// this many line touches (1 = uniform arrivals). Sequential bursts
	// stay within one stream, producing the long same-row runs whose
	// FCFS slot capture and row-hit priority chaining the paper blames
	// for FR-FCFS unfairness. The average memory intensity remains
	// MemFrac regardless of BurstLen.
	BurstLen int

	// WorkingSetKB bounds the random and pointer-chase footprint; sets
	// the L2 miss ratio of the non-streaming portion.
	WorkingSetKB int

	// FpFrac is the fraction of compute instructions that are FP.
	FpFrac float64
	// DepFrac is the probability a compute instruction depends on its
	// immediate predecessor (longer chains lower compute ILP).
	DepFrac float64

	// CodeKB is the instruction footprint; 0 disables I-fetch modeling.
	CodeKB int

	// SoloUtilTarget documents the paper-Figure-4-like solo data bus
	// utilization this profile was calibrated toward (fraction of peak).
	SoloUtilTarget float64

	// Agent selects the core model that executes the profile: the
	// default latency-sensitive OoO core, or the latency-tolerant
	// accelerator-style streaming core (see antagonist.go).
	Agent AgentKind

	// Attack, when non-zero, replaces the mixture model's address
	// selection with a targeted antagonist pattern aimed at TargetBank
	// (see antagonist.go). AttackRows bounds the distinct rows the
	// pattern cycles through (0 selects a cache-defeating default).
	Attack     AttackKind
	TargetBank int
	AttackRows int

	// PhasePeriod > 0 modulates memory intensity with a diurnal on/off
	// envelope: of every PhasePeriod instructions, the first
	// PhaseDutyPct percent run at MemFrac and the rest at
	// PhaseLowMemFrac. The phase is a pure function of the instruction
	// count, so checkpoints taken mid-burst restore bit-identically.
	PhasePeriod     uint64
	PhaseDutyPct    int
	PhaseLowMemFrac float64
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	switch {
	case p.MemFrac < 0 || p.MemFrac > 1:
		return fmt.Errorf("trace: %s: MemFrac %v out of range", p.Name, p.MemFrac)
	case p.StoreFrac < 0 || p.StoreFrac > 1:
		return fmt.Errorf("trace: %s: StoreFrac %v out of range", p.Name, p.StoreFrac)
	case p.SeqFrac < 0 || p.ChaseFrac < 0 || p.SeqFrac+p.ChaseFrac > 1:
		return fmt.Errorf("trace: %s: pattern mixture invalid (seq %v chase %v)", p.Name, p.SeqFrac, p.ChaseFrac)
	case p.MemFrac > 0 && p.WorkingSetKB < 64:
		return fmt.Errorf("trace: %s: working set %dKB too small", p.Name, p.WorkingSetKB)
	case p.MemFrac > 0 && p.SeqFrac > 0 && p.Streams < 1:
		return fmt.Errorf("trace: %s: streaming profile needs Streams >= 1", p.Name)
	case p.Agent > AgentStream:
		return fmt.Errorf("trace: %s: unknown agent kind %d", p.Name, p.Agent)
	case p.Attack > AttackBusHog:
		return fmt.Errorf("trace: %s: unknown attack kind %d", p.Name, p.Attack)
	case p.TargetBank < 0 || p.AttackRows < 0:
		return fmt.Errorf("trace: %s: negative attack parameter", p.Name)
	case p.PhaseDutyPct < 0 || p.PhaseDutyPct > 100:
		return fmt.Errorf("trace: %s: PhaseDutyPct %d out of range", p.Name, p.PhaseDutyPct)
	case p.PhaseLowMemFrac < 0 || p.PhaseLowMemFrac > 1:
		return fmt.Errorf("trace: %s: PhaseLowMemFrac %v out of range", p.Name, p.PhaseLowMemFrac)
	case p.PhasePeriod > 0 && p.PhaseDutyPct == 0:
		return fmt.Errorf("trace: %s: diurnal profile needs PhaseDutyPct >= 1", p.Name)
	}
	return nil
}

const lineBytes = 64

// rng is a xorshift64* PRNG: fast, deterministic, and good enough for
// workload synthesis.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform float64 in [0, 1). Multiplying by the exact
// reciprocal of 2^53 is bit-identical to dividing and avoids a DIVSD on
// this per-instruction path.
func (r *rng) float() float64 { return float64(r.next()>>11) * (1.0 / (1 << 53)) }

// draw returns the raw 53-bit uniform underlying float, for comparison
// against thresh(q) values: draw() < thresh(q) is bit-identical to
// float() < q without the integer-to-float conversion.
func (r *rng) draw() uint64 { return r.next() >> 11 }

// thresh converts a probability to the integer threshold t such that
// draw() < t exactly when float() < q: float() is v * 2^-53 for integer
// v, so v*2^-53 < q iff v < ceil(q * 2^53) (q*2^53 is an exact float64
// operation — the scale is a power of two).
func thresh(q float64) uint64 {
	t := q * (1 << 53)
	if t <= 0 {
		return 0
	}
	if t >= 1<<53 {
		return 1 << 53
	}
	u := uint64(t)
	if float64(u) < t {
		u++ // ceil
	}
	return u
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generator produces the instruction stream for one thread running one
// profile. It never terminates: the synthetic program loops forever, so
// callers decide the measurement window.
type Generator struct {
	p    Profile
	r    rng
	base uint64 // thread-private line-address base

	wsLines     int
	streamPos   []uint64 // per-stream current line
	streamLeft  []int    // lines left before the stream jumps
	nextStream  int
	lastLoadAgo int // instructions since the last load (for chase deps)
	burstLeft   int
	burstStream int // pinned stream during a sequential burst, -1 otherwise

	codeLines int
	codePos   uint64

	// Integer draw thresholds (see thresh), precomputed from the
	// profile's probabilities so the per-instruction path compares raw
	// rng draws instead of converting to float64. burstProbT encodes
	// the per-instruction burst start probability solved from MemFrac
	// and BurstLen (see NewGenerator); burstLen is the clamped
	// BurstLen.
	burstProbT uint64
	seqFracT   uint64
	seqChaseT  uint64
	storeFracT uint64
	fpFracT    uint64
	depFracT   uint64
	burstLen   int

	// Diurnal envelope (phasePeriod == 0 means steady): the burst start
	// threshold drops to burstProbLowT outside the first phaseHigh
	// instructions of each period. Both are pure functions of count.
	phasePeriod   uint64
	phaseHigh     uint64
	burstProbLowT uint64

	// Attack pattern state (Attack != AttackNone only): a monotone
	// cursor, the mapper the pattern aims through, the target (rank,
	// bank) and the walk's extent (see antagonist.go).
	attackStep uint64
	atkMap     addrmap.Mapper
	atkAim     addrmap.Coord
	atkChans   uint64
	atkCols    uint64
	atkRows    uint64
	atkRowBase uint64

	count uint64
}

// Fixed thresholds of Next's compute-instruction mix.
var (
	branchT = thresh(0.15)
	halfT   = thresh(0.5)
)

// regionLines is the span of line addresses private to each thread
// (4M lines = 256MB), so threads never share cache lines while still
// sharing DRAM banks.
const regionLines = 1 << 22

// NewGenerator returns a generator for the profile, seeded
// deterministically from the profile name, thread id, and seed, with
// attack patterns (if any) aimed through the paper's default mapping:
// XOR over the Table 5 shape.
func NewGenerator(p Profile, thread int, seed uint64) (*Generator, error) {
	m, err := addrmap.NewXOR(addrmap.Table5())
	if err != nil {
		return nil, err
	}
	return NewGeneratorOn(p, thread, seed, m)
}

// NewGeneratorOn is NewGenerator with the mapper its attack pattern
// aims through: the one the memory controller decodes with. Profiles
// without an attack pattern produce streams independent of the mapper.
func NewGeneratorOn(p Profile, thread int, seed uint64, m addrmap.Mapper) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := seed*0x100000001b3 + uint64(thread+1)*0xcbf29ce484222325
	for _, c := range p.Name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	g := &Generator{
		p:    p,
		r:    newRNG(h),
		base: uint64(thread) * regionLines,
	}
	g.wsLines = p.WorkingSetKB * 1024 / lineBytes
	if g.wsLines < 1 {
		g.wsLines = 1
	}
	if g.wsLines > regionLines/2 {
		g.wsLines = regionLines / 2
	}
	n := p.Streams
	if n < 1 {
		n = 1
	}
	g.streamPos = make([]uint64, n)
	g.streamLeft = make([]int, n)
	for i := range g.streamPos {
		g.resetStream(i)
	}
	g.codeLines = p.CodeKB * 1024 / lineBytes
	// A burst of length B started with probability q per non-burst
	// instruction yields a memory-instruction fraction qB/(qB + 1 - q);
	// solve for q so the average intensity is exactly MemFrac.
	bl := p.BurstLen
	if bl < 1 {
		bl = 1
	}
	f := p.MemFrac
	g.burstLen = bl
	g.burstProbT = thresh(f / (float64(bl)*(1-f) + f))
	g.seqFracT = thresh(p.SeqFrac)
	g.seqChaseT = thresh(p.SeqFrac + p.ChaseFrac)
	g.storeFracT = thresh(p.StoreFrac)
	g.fpFracT = thresh(p.FpFrac)
	g.depFracT = thresh(p.DepFrac)
	if p.PhasePeriod > 0 {
		g.phasePeriod = p.PhasePeriod
		g.phaseHigh = p.PhasePeriod * uint64(p.PhaseDutyPct) / 100
		lo := p.PhaseLowMemFrac
		g.burstProbLowT = thresh(lo / (float64(bl)*(1-lo) + lo))
	}
	if err := g.initAttack(m); err != nil {
		return nil, err
	}
	return g, nil
}

// resetStream points stream i at a random offset inside the working
// set. Streams sweep the working set in long sequential runs, so their
// row-buffer locality is high; whether they miss is decided by the
// working set size relative to the cache hierarchy (a 4MB array streams
// through a 512KB L2, a 128KB one is cache resident).
func (g *Generator) resetStream(i int) {
	g.streamPos[i] = uint64(g.r.intn(g.wsLines))
	g.streamLeft[i] = 512 + g.r.intn(1024)
}

// Name returns the profile name.
func (g *Generator) Name() string { return g.p.Name }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Count returns how many instructions have been generated.
func (g *Generator) Count() uint64 { return g.count }

// CodeLine returns the current instruction-fetch line address, advancing
// through the code working set; ok is false when I-fetch modeling is
// disabled for this profile.
func (g *Generator) CodeLine() (uint64, bool) {
	if g.codeLines == 0 {
		return 0, false
	}
	a := g.base + uint64(regionLines/4) + g.codePos
	g.codePos++
	if g.codePos >= uint64(g.codeLines) {
		g.codePos = 0
	}
	return a, true
}

// Next fills in the next instruction of the synthetic program.
func (g *Generator) Next(ins *Instr) {
	g.count++
	g.lastLoadAgo++
	*ins = Instr{}
	if g.burstLeft > 0 {
		g.burstLeft--
		g.memInstr(ins, g.burstStream)
		return
	}
	t := g.burstProbT
	if g.phasePeriod != 0 && (g.count-1)%g.phasePeriod >= g.phaseHigh {
		t = g.burstProbLowT
	}
	if g.r.draw() < t {
		g.burstLeft = g.burstLen - 1
		g.burstStream = -1
		if g.burstLen > 1 && g.r.draw() < g.seqFracT {
			// Stream-coherent burst: a long run of consecutive lines
			// from a single stream (one or two DRAM rows).
			g.burstStream = g.r.intn(len(g.streamPos))
		}
		g.memInstr(ins, g.burstStream)
		return
	}
	// Compute instruction.
	x := g.r.draw()
	switch {
	case x < branchT:
		ins.Kind = KindBranch
		ins.Lat = 1
	case g.r.draw() < g.fpFracT:
		ins.Kind = KindFp
		ins.Lat = 4
	default:
		ins.Kind = KindInt
		ins.Lat = 1
	}
	if g.r.draw() < g.depFracT {
		ins.Dep = 1
	} else if g.r.draw() < halfT {
		ins.Dep = 4 + g.r.intn(12)
	}
}

// memInstr emits one memory instruction. stream >= 0 pins the access to
// that sequential stream (a stream-coherent burst); -1 selects the
// profile's pattern mixture.
func (g *Generator) memInstr(ins *Instr, stream int) {
	isStore := g.r.draw() < g.storeFracT
	if isStore {
		ins.Kind = KindStore
	} else {
		ins.Kind = KindLoad
	}
	if g.p.Attack != AttackNone {
		ins.Addr = g.attackAddr()
		if ins.Kind == KindLoad {
			g.lastLoadAgo = 0
		}
		return
	}
	x := g.r.draw()
	if stream >= 0 {
		x = 0 // force the sequential arm onto the pinned stream
	}
	switch {
	case x < g.seqFracT:
		// Streaming: round-robin across streams (or the burst's pinned
		// stream), wrapping within the working set.
		i := stream
		if i < 0 {
			i = g.nextStream
			g.nextStream = (g.nextStream + 1) % len(g.streamPos)
		}
		ins.Addr = g.base + g.streamPos[i]%uint64(g.wsLines)
		g.streamPos[i]++
		g.streamLeft[i]--
		if g.streamLeft[i] <= 0 {
			g.resetStream(i)
		}
	case x < g.seqChaseT:
		// Pointer chase: a random line in the working set whose address
		// depends on the previous load.
		ins.Addr = g.base + uint64(g.r.intn(g.wsLines))
		if ins.Kind == KindLoad {
			if g.lastLoadAgo < 64 && g.count > 1 {
				ins.Dep = g.lastLoadAgo
			}
		}
	default:
		// Independent random access in the working set.
		ins.Addr = g.base + uint64(g.r.intn(g.wsLines))
	}
	if ins.Kind == KindLoad {
		g.lastLoadAgo = 0
	}
}
