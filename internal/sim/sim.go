// Package sim wires the substrates into a whole-system simulator: N
// out-of-order cores with private cache hierarchies sharing one DDR2
// memory controller, matching the paper's Section 4.1 methodology ("the
// SDRAM memory system is the only shared resource"). A global cycle
// loop drives everything; request and response transit latencies model
// the on-chip interconnect between the L2s and the memory controller.
package sim

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// PolicyFactory constructs a scheduling policy for a system with the
// given per-thread shares, bank count, and DRAM timing.
type PolicyFactory func(shares []core.Share, nbanks int, t dram.Timing) core.Policy

// Standard policy factories.
var (
	FCFS PolicyFactory = func([]core.Share, int, dram.Timing) core.Policy {
		return core.NewFCFS()
	}
	FRFCFS PolicyFactory = func([]core.Share, int, dram.Timing) core.Policy {
		return core.NewFRFCFS()
	}
	FRVFTF PolicyFactory = func(s []core.Share, n int, t dram.Timing) core.Policy {
		return core.NewFRVFTF(s, n, t)
	}
	FQVFTF PolicyFactory = func(s []core.Share, n int, t dram.Timing) core.Policy {
		return core.NewFQVFTF(s, n, t)
	}
	FRVSTF PolicyFactory = func(s []core.Share, n int, t dram.Timing) core.Policy {
		return core.NewFRVSTF(s, n, t)
	}
	// The post-2006 arena lineage (see internal/core/policy_arena.go).
	BLISS PolicyFactory = func(s []core.Share, _ int, _ dram.Timing) core.Policy {
		return core.NewBLISS(len(s))
	}
	SLOWFAIR PolicyFactory = func(s []core.Share, _ int, t dram.Timing) core.Policy {
		return core.NewSlowFair(len(s), t)
	}
	BANKBW PolicyFactory = func(s []core.Share, n int, _ dram.Timing) core.Policy {
		return core.NewBankBW(len(s), n)
	}
)

// policies is the one list of schedulers: each entry's first name is
// canonical (what Policy.Name reports), the rest are accepted aliases.
var policies = []struct {
	names   []string
	factory PolicyFactory
}{
	{[]string{"FCFS", "fcfs"}, FCFS},
	{[]string{"FR-FCFS", "frfcfs"}, FRFCFS},
	{[]string{"FR-VFTF", "frvftf"}, FRVFTF},
	{[]string{"FQ-VFTF", "fqvftf", "FQ"}, FQVFTF},
	{[]string{"FR-VSTF", "frvstf"}, FRVSTF},
	{[]string{"BLISS", "bliss"}, BLISS},
	{[]string{"SLOW-FAIR", "slowfair"}, SLOWFAIR},
	{[]string{"BANK-BW", "bankbw"}, BANKBW},
}

// PolicyNames returns the canonical name of every scheduler
// PolicyByName resolves.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.names[0]
	}
	return out
}

// PolicyByName resolves a policy name to its factory.
func PolicyByName(name string) (PolicyFactory, error) {
	for _, p := range policies {
		for _, n := range p.names {
			if n == name {
				return p.factory, nil
			}
		}
	}
	return nil, fmt.Errorf("sim: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// NamedConfig is the one place a run described by names becomes a
// Config: one benchmark name per core, a scheduler name ("" = FR-FCFS),
// per-thread shares (nil = the equal split), the channel count (0 = one)
// and the uniform memory-timing scale of the paper's private baselines
// (0 or 1 = the physical system). The result has passed every check New
// applies, so a hostile description is an error here and never a
// simulation; callers then set the run's remaining switches (Seed,
// Audit, Interference, ...) as plain fields.
func NamedConfig(benches []string, policy string, shares []core.Share, channels, memScale int) (Config, error) {
	cfg := Config{Shares: shares, Workload: make([]trace.Profile, len(benches))}
	for i, b := range benches {
		p, err := trace.ByName(b)
		if err != nil {
			return Config{}, err
		}
		cfg.Workload[i] = p
	}
	if policy != "" {
		f, err := PolicyByName(policy)
		if err != nil {
			return Config{}, err
		}
		cfg.Policy = f
	}
	cfg.Mem.Channels = channels
	// A scaled refresh that no longer fits its (wall-clock) interval
	// leaves no cycle for requests; the quotient also bounds every
	// scaled field far below integer overflow.
	t := dram.DDR2800()
	if maxScale := (t.TREF - 1) / t.TRFC; memScale < 0 || memScale > maxScale {
		return Config{}, fmt.Errorf("sim: memory scale %d outside [0, %d]", memScale, maxScale)
	}
	if memScale > 1 {
		cfg.Mem.DRAM = dram.DefaultConfig()
		cfg.Mem.DRAM.Timing = t.Scale(memScale)
	}
	if _, err := cfg.withDefaults(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Config describes one simulated system.
type Config struct {
	// Workload holds one benchmark profile per core.
	Workload []trace.Profile

	// Sources, when non-nil, overrides Workload with explicit
	// instruction sources (e.g. replayed trace files); one per core.
	Sources []trace.Source

	// Shares holds each thread's allocated fraction of the memory
	// system; nil means the paper's static equal allocation 1/N.
	Shares []core.Share

	// Policy selects the memory scheduler; nil means FR-FCFS.
	Policy PolicyFactory

	// CPU, Cache, and Mem configure the substrates; zero values select
	// the paper's Table 5 configuration. Mem's Audit, Interference,
	// Metrics and Trace are overwritten from the fields below: set those.
	CPU   cpu.Config
	Cache cache.HierarchyConfig
	Mem   memctrl.Config

	// ReqTransit and RespTransit are the on-chip latencies between an
	// L2 miss and the memory controller, and between the end of the
	// data burst and the fill at the core.
	ReqTransit, RespTransit int

	// Seed perturbs the trace generators deterministically.
	Seed uint64

	// Strict disables the event-driven fast path and runs the seed's
	// exhaustive cycle-by-cycle loop. Simulated results are identical
	// either way (the equivalence tests assert it); strict mode exists
	// as a cross-check oracle and a debugging aid.
	Strict bool

	// Audit attaches the runtime invariant auditor (package audit) to the
	// memory controller; every issued SDRAM command and completed request
	// is re-validated against independently recomputed timing,
	// conservation, VTMS, and FQ bank-scheduling invariants, and any
	// violation panics with the recent command history. Results are
	// identical with or without.
	Audit bool

	// Interference enables the controller's per-request delay
	// attribution: every cycle a request waits is charged to an
	// exclusive cause and aggressor thread, exposed as a
	// cycles[victim][aggressor] matrix (memctrl.InterferenceSnapshot,
	// the /interference telemetry endpoint, and a member of each sweep
	// run's artifact set). Observation-only: results, series,
	// and checkpoint-restored continuations are bit-identical with or
	// without.
	Interference bool

	// Metrics, when non-nil, registers the whole stack's observability
	// metrics with the registry: the controller's per-bank command mix
	// and VTMS bookkeeping (see memctrl.Config.Metrics) plus per-thread
	// end-to-end read-latency histograms, retired-instruction counts,
	// and ROB-stall cycles. Metrics are write-only from the simulation's
	// point of view: results are bit-identical with or without.
	Metrics *metrics.Registry

	// Trace, when non-nil, streams a Chrome trace-event (about://tracing)
	// timeline of SDRAM commands and request lifetimes. Purely
	// observational, like Metrics.
	Trace *metrics.TraceWriter

	// SampleInterval > 0 enables epoch telemetry: a metrics.Sampler
	// snapshots the registry every SampleInterval cycles (per-epoch
	// counter and histogram deltas in a bounded ring) and a
	// memctrl.FairnessMonitor scores each thread's service share
	// against its phi. Samples land on exact interval multiples: the
	// event-driven skip-ahead clamps to the next boundary instead of
	// re-running per-cycle work. A registry is created automatically
	// when Metrics is nil. Purely observational: results are
	// bit-identical with sampling on or off.
	SampleInterval int64

	// SampleCapacity bounds the retained epochs per series (0 selects
	// metrics.DefaultSampleCapacity).
	SampleCapacity int

	// Workers is ignored: a System always steps on the calling
	// goroutine.
	//
	// Deprecated: it remains only because the benchmark harness's par.*
	// probe (bench/layers.go) assigns it, and goes with that probe in the
	// next change to the harness.
	Workers int
}

// withDefaults fills zero-valued fields with Table 5 defaults.
func (c Config) withDefaults() (Config, error) {
	for i, s := range c.Sources {
		if s == nil {
			return c, fmt.Errorf("sim: source %d is nil", i)
		}
	}
	if len(c.Sources) > 0 && len(c.Workload) == 0 {
		// Replay mode: synthesize placeholder profiles so the rest of
		// the configuration sees a consistent core count.
		c.Workload = make([]trace.Profile, len(c.Sources))
		for i, s := range c.Sources {
			c.Workload[i] = trace.Profile{Name: s.Name()}
		}
	}
	if len(c.Workload) == 0 {
		return c, fmt.Errorf("sim: empty workload")
	}
	if len(c.Sources) > 0 && len(c.Sources) != len(c.Workload) {
		return c, fmt.Errorf("sim: %d sources for %d cores", len(c.Sources), len(c.Workload))
	}
	n := len(c.Workload)
	if c.Shares == nil {
		c.Shares = make([]core.Share, n)
		for i := range c.Shares {
			c.Shares[i] = core.EqualShare(n)
		}
	}
	if len(c.Shares) != n {
		return c, fmt.Errorf("sim: %d shares for %d cores", len(c.Shares), n)
	}
	// The shares are fractions of one memory system: each proper, and
	// together at most the whole. Exactly: over the common denominator
	// L, sum(Num/Den) <= 1 iff sum(Num*(L/Den)) <= L.
	lcm := uint64(1)
	for i, s := range c.Shares {
		if !s.Valid() {
			return c, fmt.Errorf("sim: invalid share %v for core %d", s, i)
		}
		gcd, r := lcm, uint64(s.Den)
		for r != 0 {
			gcd, r = r, gcd%r
		}
		hi, lo := bits.Mul64(lcm/gcd, uint64(s.Den))
		if hi != 0 {
			return c, fmt.Errorf("sim: shares %v have no common denominator below 2^64", c.Shares)
		}
		lcm = lo
	}
	room := lcm
	for _, s := range c.Shares {
		part := uint64(s.Num) * (lcm / uint64(s.Den)) // <= lcm, as Num <= Den
		if part > room {
			return c, fmt.Errorf("sim: shares %v sum to more than the whole memory system", c.Shares)
		}
		room -= part
	}
	if c.Policy == nil {
		c.Policy = FRFCFS
	}
	if c.CPU == (cpu.Config{}) {
		c.CPU = cpu.DefaultConfig()
	}
	if c.Cache == (cache.HierarchyConfig{}) {
		c.Cache = cache.DefaultHierarchyConfig()
	}
	// A zero Mem field takes its Table 5 value; a set one is kept as
	// given, so a bad one reaches Validate below.
	def := memctrl.DefaultConfig(n)
	if c.Mem.DRAM == (dram.Config{}) {
		c.Mem.DRAM = def.DRAM
	}
	if c.Mem.Channels == 0 {
		c.Mem.Channels = def.Channels
	}
	if c.Mem.ReadEntriesPerThread == 0 {
		c.Mem.ReadEntriesPerThread = def.ReadEntriesPerThread
	}
	if c.Mem.WriteEntriesPerThread == 0 {
		c.Mem.WriteEntriesPerThread = def.WriteEntriesPerThread
	}
	c.Mem.Threads = n
	// The transit defaults are a calibration choice: with a short
	// L2-to-controller round trip, a 16-MSHR thread can keep the DDR2
	// data bus saturated, which the paper's aggressive benchmarks
	// evidently do ("the first six subject threads demand more than
	// half of the memory system bandwidth"). Longer transits starve the
	// MSHR pipeline and cap every thread near 45% utilization.
	if c.ReqTransit == 0 {
		c.ReqTransit = 10
	}
	if c.RespTransit == 0 {
		c.RespTransit = 10
	}
	// A negative transit would deliver a fill before its data burst ends;
	// a negative interval or capacity sizes nothing.
	if c.ReqTransit < 0 || c.RespTransit < 0 || c.SampleInterval < 0 || c.SampleCapacity < 0 {
		return c, fmt.Errorf("sim: transits (request %d, response %d), sample interval %d and capacity %d must not be negative",
			c.ReqTransit, c.RespTransit, c.SampleInterval, c.SampleCapacity)
	}
	if c.SampleInterval > 0 && c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	// Assigned, not merged: what listens is what the checkpoint
	// fingerprint (which reads this Config's fields) records.
	c.Mem.Audit, c.Mem.Interference = c.Audit, c.Interference
	c.Mem.Metrics, c.Mem.Trace = c.Metrics, c.Trace
	// Checked here, before New sizes the policy and the channel models
	// from it: a hostile channel count must cost an error, not memory.
	return c, c.Mem.Validate()
}

// timedAddr is an address in transit at a given delivery time.
type timedAddr struct {
	addr uint64
	at   int64
}

// timedQueue is a FIFO of in-transit addresses, consumed by head index
// instead of reslicing so the backing array is reused once the queue
// drains: the steady state pushes and pops without allocating.
type timedQueue struct {
	buf  []timedAddr
	head int
}

func (q *timedQueue) push(e timedAddr) { q.buf = append(q.buf, e) }

func (q *timedQueue) peek() (timedAddr, bool) {
	if q.head >= len(q.buf) {
		return timedAddr{}, false
	}
	return q.buf[q.head], true
}

func (q *timedQueue) pop() {
	q.head++
	if q.head == len(q.buf) {
		// Fully drained: restart from index 0 in the same backing array.
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.buf) {
		// Mostly consumed but never empty: compact so the buffer cannot
		// crawl rightward unboundedly.
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
}

// System is one simulated CMP.
type System struct {
	cfg   Config
	cores []*cpu.Core
	ctrl  *memctrl.Controller
	cycle int64

	fetchQ []timedQueue // per core, toward the controller (reads)
	wbQ    []timedQueue // per core, toward the controller (writes)
	respQ  []timedQueue // per core, fills returning

	// coreWake[i] is core i's NextWork bound as of its last tick: until
	// that cycle, or a fill due sooner, coreStep leaves the core dormant.
	// Not serialized: zero after New and Restore, which only costs each
	// core one tick it may not have needed. coreTicks counts the core
	// ticks run and stepped the cycles simulated rather than skipped (see
	// StepCounts).
	coreWake  []int64
	coreTicks int64
	stepped   int64

	// latHist holds the per-thread end-to-end read-latency histograms
	// (nil when Config.Metrics is unset).
	latHist []*metrics.Histogram

	// Epoch telemetry (nil/noEpoch when Config.SampleInterval is 0):
	// sampler and fair are sampled when the cycle counter crosses
	// epochNext, and nextWake clamps skip-ahead jumps to that boundary
	// so samples land on exact interval multiples.
	sampler   *metrics.Sampler
	fair      *memctrl.FairnessMonitor
	epochNext int64

	snap baseline
}

// noEpoch is epochNext's "sampling disabled" sentinel; a cycle counter
// never reaches it.
const noEpoch = int64(1) << 62

// New constructs a system.
func New(cfg Config) (*System, error) {
	// An explicitly configured CPU or cache applies to every core;
	// otherwise each core's configuration follows its profile's agent
	// kind (the Table 5 OoO core, or the deep-queue streaming agent).
	cpuExplicit := cfg.CPU != (cpu.Config{})
	cacheExplicit := cfg.Cache != (cache.HierarchyConfig{})
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(cfg.Workload)
	policy := cfg.Policy(cfg.Shares, cfg.Mem.TotalBanks(), cfg.Mem.DRAM.Timing)
	ctrl, err := memctrl.New(cfg.Mem, policy)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		ctrl:   ctrl,
		cores:  make([]*cpu.Core, n),
		fetchQ: make([]timedQueue, n),
		wbQ:    make([]timedQueue, n),
		respQ:  make([]timedQueue, n),

		coreWake: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		cpuCfg, cacheCfg := cfg.CPU, cfg.Cache
		if cfg.Workload[i].Agent == trace.AgentStream {
			if !cpuExplicit {
				cpuCfg = cpu.StreamConfig()
			}
			if !cacheExplicit {
				cacheCfg = cache.StreamHierarchyConfig()
			}
		}
		hier, err := cache.NewHierarchy(cacheCfg)
		if err != nil {
			return nil, err
		}
		var src trace.Source
		if cfg.Sources != nil {
			src = cfg.Sources[i]
		} else {
			// Attack patterns aim through the controller's own mapper.
			gen, err := trace.NewGeneratorOn(cfg.Workload[i], i, cfg.Seed+1, ctrl.Mapper())
			if err != nil {
				return nil, err
			}
			src = gen
		}
		c, err := cpu.New(i, cpuCfg, src, hier)
		if err != nil {
			return nil, err
		}
		s.cores[i] = c
	}
	ctrl.OnReadDone = func(req *core.Request, now int64) {
		t := req.Thread
		s.respQ[t].push(timedAddr{addr: req.Addr, at: now + int64(s.cfg.RespTransit)})
	}
	if cfg.Metrics != nil {
		s.initMetrics(cfg.Metrics)
	}
	s.epochNext = noEpoch
	if cfg.SampleInterval > 0 {
		s.fair = memctrl.NewFairnessMonitor(ctrl, cfg.SampleInterval, cfg.SampleCapacity)
		s.fair.RegisterMetrics(cfg.Metrics)
		s.sampler = metrics.NewSampler(cfg.Metrics, metrics.SamplerConfig{
			Interval: cfg.SampleInterval,
			Capacity: cfg.SampleCapacity,
		})
		// Baseline sample at cycle 0: a live scrape has a full
		// exposition before the first boundary, and epoch deltas sum to
		// the cumulative totals.
		s.fair.Sample(0)
		s.sampler.Sample(0)
		s.epochNext = cfg.SampleInterval
	}
	ctrl.SetEventDriven(!cfg.Strict)
	return s, nil
}

// Close does nothing: a System holds no goroutines or other resources.
//
// Deprecated: it remains only because the benchmark harness
// (bench/layers.go, bench/workloads.go) calls it, and goes with the
// harness's par.* probe in the next change to the harness.
func (s *System) Close() {}

// Sampler returns the epoch sampler (nil unless Config.SampleInterval
// is set).
func (s *System) Sampler() *metrics.Sampler { return s.sampler }

// Fairness returns the fairness-over-time monitor (nil unless
// Config.SampleInterval is set).
func (s *System) Fairness() *memctrl.FairnessMonitor { return s.fair }

// takeSamples drives every due epoch series at the current cycle and
// recomputes the next boundary.
func (s *System) takeSamples() {
	now := s.cycle
	// The fairness monitor samples first so the registry Funcs it
	// mirrors (cumulative shortfall, last excess) are fresh when the
	// sampler snapshots them.
	if now >= s.fair.NextSampleAt() {
		s.fair.Sample(now)
	}
	if now >= s.sampler.NextSampleAt() {
		s.sampler.Sample(now)
	}
	// Refresh the snapshot concurrent readers (the telemetry server's
	// /interference endpoint) see; a no-op when attribution is off.
	s.ctrl.PublishInterference()
	s.epochNext = s.fair.NextSampleAt()
	if next := s.sampler.NextSampleAt(); next < s.epochNext {
		s.epochNext = next
	}
}

// fixedReadLatency is the deterministic part of an end-to-end read: L1
// and L2 lookups plus both transit legs.
func (s *System) fixedReadLatency() int64 {
	return int64(s.cfg.Cache.L1D.Latency + s.cfg.Cache.L2.Latency +
		s.cfg.ReqTransit + s.cfg.RespTransit)
}

// initMetrics registers the system-level metrics and chains an
// end-to-end latency observation onto the controller's read-completion
// callback. Observation order and content never influence simulation
// state, preserving bit-identical results.
func (s *System) initMetrics(reg *metrics.Registry) {
	s.latHist = make([]*metrics.Histogram, len(s.cores))
	fixed := s.fixedReadLatency()
	for i, c := range s.cores {
		c := c
		s.latHist[i] = reg.Histogram(fmt.Sprintf("sim.thread%d.read_latency", i))
		reg.Func(fmt.Sprintf("cpu.thread%d.retired", i), func() int64 { return c.Retired })
		reg.Func(fmt.Sprintf("cpu.thread%d.loads_retired", i), func() int64 { return c.LoadsRetired })
		reg.Func(fmt.Sprintf("cpu.thread%d.stall_cycles", i), func() int64 { return c.StallCycles })
	}
	reg.Func("sim.cycle", func() int64 { return s.cycle })
	inner := s.ctrl.OnReadDone
	s.ctrl.OnReadDone = func(req *core.Request, now int64) {
		s.latHist[req.Thread].Observe(now - req.ArrivalReal + fixed)
		inner(req, now)
	}
}

// Controller exposes the memory controller (for statistics and tests).
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// FinishAudit runs the auditor's end-of-run conservation and starvation
// checks (a no-op unless auditing is enabled). Run calls it after the
// measurement window; long-lived callers of Step should call it once at
// the end of the simulation.
func (s *System) FinishAudit() { s.ctrl.FinishAudit(s.cycle) }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// SetShare reassigns thread i's bandwidth share at run time; see
// memctrl.Controller.SetShare.
func (s *System) SetShare(thread int, share core.Share) bool { return s.ctrl.SetShare(thread, share) }

// Cycle returns the current cycle.
func (s *System) Cycle() int64 { return s.cycle }

// StepCounts are cumulative counts of the work Step did, deterministic
// for a configuration and seed: how many cycles it simulated rather than
// skipped, and how many core ticks it ran on them (a dormant core is not
// ticked). They are host-side economy figures like
// memctrl.Controller.SchedCounts, not simulated state: they restart at
// zero in a restored system, so they are kept out of the checkpoint and
// the metrics registry.
type StepCounts struct {
	Stepped, CoreTicks int64
}

// StepCounts returns the counts so far.
func (s *System) StepCounts() StepCounts {
	return StepCounts{Stepped: s.stepped, CoreTicks: s.coreTicks}
}

// Step advances the system by n cycles. Unless Config.Strict is set it
// uses an event-driven fast path: after fully simulating a cycle, it
// computes the earliest future cycle at which any component can act —
// a transit-queue delivery, a core with issuable work (cpu.NextWork),
// or a controller event (memctrl.NextEventAt) — and jumps the clock
// there, batch-crediting the skipped cycles to the virtual clock. The
// same bound applies per core on the cycles it does simulate (coreStep).
// Simulated results are bit-identical to the strict per-cycle loop.
func (s *System) Step(n int64) {
	end := s.cycle + n
	for s.cycle < end {
		now := s.cycle
		s.stepped++
		s.ctrl.Tick(now)
		for i := range s.cores {
			s.coreStep(i, now)
		}
		for i := range s.cores {
			// Offer due requests to the controller (one read and one
			// write acceptance attempt per core per cycle; NACKs retry).
			// A full partition refuses until a full controller tick frees
			// an entry, so a refused head costs the CanAccept compare, not
			// an Accept call.
			if e, ok := s.fetchQ[i].peek(); ok && e.at <= now && s.ctrl.CanAccept(i, false) &&
				s.ctrl.Accept(i, e.addr, false, now) {
				s.fetchQ[i].pop()
			}
			if e, ok := s.wbQ[i].peek(); ok && e.at <= now && s.ctrl.CanAccept(i, true) &&
				s.ctrl.Accept(i, e.addr, true, now) {
				s.wbQ[i].pop()
			}
		}

		if !s.cfg.Strict {
			if wake := s.nextWake(now, end); wake > now+1 {
				// No component can act before wake: credit the virtual
				// clock for the skipped span and jump. Skipped cycles
				// retire nothing by construction, so they are ROB stalls
				// for any core holding instructions (matching the strict
				// per-cycle accounting).
				s.ctrl.SkipTo(now+1, wake)
				for _, c := range s.cores {
					c.CreditStall(wake - now - 1)
				}
				s.cycle = wake
				if s.cycle >= s.epochNext {
					s.takeSamples()
				}
				continue
			}
		}
		s.cycle++
		if s.cycle >= s.epochNext {
			s.takeSamples()
		}
	}
}

// coreStep advances core i through cycle now: deliver due fills, tick
// the pipeline, and drain new misses and writebacks into the transit
// queues. It touches only core i's state (core, hierarchy, and the
// core's three queues); the acceptance attempts, which mutate the
// controller, run after every core has stepped, in core order.
//
// Per-core dormancy: a core whose last tick left NextWork in the future
// is not ticked again before that cycle unless a fill is due — the
// skip-ahead argument applied to one core instead of all at once. Such
// a tick would retire, drain, issue and dispatch nothing and leave both
// outgoing queues empty; all it changes is StallCycles, which
// CreditStall(1) adds. Strict ticks every core on every cycle.
func (s *System) coreStep(i int, now int64) {
	c := s.cores[i]
	if !s.cfg.Strict && now < s.coreWake[i] {
		if e, ok := s.respQ[i].peek(); !ok || e.at > now {
			c.CreditStall(1)
			return
		}
	}
	s.coreTicks++
	// Deliver due fills.
	for {
		e, ok := s.respQ[i].peek()
		if !ok || e.at > now {
			break
		}
		if tok, ok := c.Hierarchy().TokenFor(e.addr); ok {
			c.Hierarchy().Fill(tok)
			c.OnFill(tok, now)
		}
		s.respQ[i].pop()
	}

	c.Tick(now)

	// Move new misses and writebacks into the transit queues.
	h := c.Hierarchy()
	for {
		addr, _, ok := h.NextFetch()
		if !ok {
			break
		}
		h.FetchAccepted()
		s.fetchQ[i].push(timedAddr{addr: addr, at: now + int64(s.cfg.ReqTransit)})
	}
	for {
		addr, ok := h.NextWriteback()
		if !ok {
			break
		}
		h.WritebackAccepted()
		s.wbQ[i].push(timedAddr{addr: addr, at: now + int64(s.cfg.ReqTransit)})
	}
	s.coreWake[i] = c.NextWork(now + 1)
}

// nextWake returns the earliest cycle in (now, end] at which any core or
// the controller can make progress, given that cycle now has been fully
// simulated. It is conservative: returning now+1 is always safe (no
// skip), and any later value must be provably dormant in between.
func (s *System) nextWake(now, end int64) int64 {
	wake := end
	for i := range s.cores {
		// Pending fills: delivery times are monotone, so the head bounds
		// the queue.
		if e, ok := s.respQ[i].peek(); ok {
			if e.at <= now+1 {
				return now + 1
			}
			if e.at < wake {
				wake = e.at
			}
		}
		// Pending requests toward the controller. A due head that the
		// controller would NACK is ignored here: buffer occupancy only
		// changes at controller event cycles, which NextEventAt covers.
		if e, ok := s.fetchQ[i].peek(); ok && s.ctrl.CanAccept(i, false) {
			if e.at <= now+1 {
				return now + 1
			}
			if e.at < wake {
				wake = e.at
			}
		}
		if e, ok := s.wbQ[i].peek(); ok && s.ctrl.CanAccept(i, true) {
			if e.at <= now+1 {
				return now + 1
			}
			if e.at < wake {
				wake = e.at
			}
		}
		// The core itself: retirement, load issue, store drain, dispatch
		// (its NextWork bound, cached by coreStep).
		if w := s.coreWake[i]; w <= now+1 {
			return now + 1
		} else if w < wake {
			wake = w
		}
	}
	if w := s.ctrl.NextEventAt(); w < wake {
		wake = w
	}
	// Telemetry epoch boundary: stop the jump there so samples land on
	// exact interval multiples. Waking early is always safe; sampling
	// reads state without changing it.
	if s.epochNext < wake {
		wake = s.epochNext
	}
	if wake < now+1 {
		return now + 1
	}
	return wake
}

// snapshot captures cumulative counters at the start of a measurement
// window so Results can report deltas.
type baseline struct {
	cycle                       int64
	retired                     []int64
	stalls                      []int64
	readsDone                   []int64
	readLatSum                  []int64
	busCycles                   []int64
	dataBusBusy                 int64
	bankBusy                    int64
	rowHits, rowConf, rowClosed []int64
}

func newBaseline(n int) baseline {
	return baseline{
		retired:    make([]int64, n),
		stalls:     make([]int64, n),
		readsDone:  make([]int64, n),
		readLatSum: make([]int64, n),
		busCycles:  make([]int64, n),
		rowHits:    make([]int64, n),
		rowConf:    make([]int64, n),
		rowClosed:  make([]int64, n),
	}
}

// BeginMeasurement marks the end of warmup: statistics reported by
// Results cover everything after this call.
func (s *System) BeginMeasurement() {
	s.snap = newBaseline(len(s.cores))
	s.snap.cycle = s.cycle
	for i, c := range s.cores {
		st := s.ctrl.Stats(i)
		s.snap.retired[i] = c.Retired
		s.snap.stalls[i] = c.StallCycles
		s.snap.readsDone[i] = st.ReadsDone
		s.snap.readLatSum[i] = st.ReadLatencySum
		s.snap.busCycles[i] = st.DataBusCycles
		s.snap.rowHits[i] = st.RowHits
		s.snap.rowConf[i] = st.RowConflicts
		s.snap.rowClosed[i] = st.RowClosed
	}
	s.snap.dataBusBusy = s.ctrl.DataBusBusyCycles()
	s.snap.bankBusy = s.ctrl.BankBusyCycles(s.cycle)
	// The interference matrix windows the same way: attribution
	// accumulated during warmup is excluded from Interference().
	s.ctrl.MarkInterferenceBaseline()
}

// Interference returns the delay-attribution matrix accumulated since
// BeginMeasurement (false when Config.Interference is off). Call on
// the simulation goroutine, like Results.
func (s *System) Interference() (memctrl.InterferenceSnapshot, bool) {
	return s.ctrl.InterferenceSnapshot(true)
}

// ThreadResult is one thread's measured behavior over the window.
type ThreadResult struct {
	Benchmark      string
	Instructions   int64
	IPC            float64
	ReadsDone      int64
	AvgReadLatency float64 // end to end: L2 path + transits + controller
	ReadLatP50     float64 // median end-to-end read latency
	ReadLatP95     float64 // 95th-percentile end-to-end read latency
	ReadLatP99     float64 // 99th-percentile end-to-end read latency
	StallCycles    int64   // cycles the ROB held instructions but retired none
	BusUtil        float64 // fraction of peak data bus bandwidth
	RowHitRate     float64
}

// Result is the outcome of one measured window.
type Result struct {
	Cycles      int64
	Threads     []ThreadResult
	DataBusUtil float64 // aggregate
	BankUtil    float64 // aggregate, averaged over banks
	PolicyName  string
}

// Results reports the statistics accumulated since BeginMeasurement, or
// since cycle zero when it was never called. It stores nothing: a peek
// during warm-up does not start the measurement window.
func (s *System) Results() Result {
	snap := s.snap
	if !s.MeasurementStarted() {
		snap = newBaseline(len(s.cores))
	}
	window := s.cycle - snap.cycle
	res := Result{
		Cycles:     window,
		Threads:    make([]ThreadResult, len(s.cores)),
		PolicyName: s.ctrl.Policy().Name(),
	}
	fixedLat := float64(s.fixedReadLatency())
	for i, c := range s.cores {
		st := s.ctrl.Stats(i)
		tr := &res.Threads[i]
		tr.Benchmark = s.cfg.Workload[i].Name
		tr.Instructions = c.Retired - snap.retired[i]
		if window > 0 {
			tr.IPC = float64(tr.Instructions) / float64(window)
			tr.BusUtil = float64(st.DataBusCycles-snap.busCycles[i]) /
				float64(window*int64(s.ctrl.Channels()))
		}
		tr.ReadsDone = st.ReadsDone - snap.readsDone[i]
		tr.StallCycles = c.StallCycles - snap.stalls[i]
		if tr.ReadsDone > 0 {
			tr.AvgReadLatency = float64(st.ReadLatencySum-snap.readLatSum[i])/float64(tr.ReadsDone) + fixedLat
			// The histogram is cumulative (not windowed); with standard
			// warmup/window proportions the tail estimate is dominated
			// by the window.
			tr.ReadLatP50 = st.ReadLatencyQuantile(0.50) + fixedLat
			tr.ReadLatP95 = st.ReadLatencyQuantile(0.95) + fixedLat
			tr.ReadLatP99 = st.ReadLatencyQuantile(0.99) + fixedLat
		}
		hits := st.RowHits - snap.rowHits[i]
		tot := hits + (st.RowConflicts - snap.rowConf[i]) + (st.RowClosed - snap.rowClosed[i])
		if tot > 0 {
			tr.RowHitRate = float64(hits) / float64(tot)
		}
	}
	if window > 0 {
		nch := int64(s.ctrl.Channels())
		res.DataBusUtil = float64(s.ctrl.DataBusBusyCycles()-snap.dataBusBusy) / float64(window*nch)
		res.BankUtil = float64(s.ctrl.BankBusyCycles(s.cycle)-snap.bankBusy) /
			float64(window*nch*int64(s.cfg.Mem.DRAM.Banks()))
	}
	return res
}

// RunTo is the one run loop: it advances the system to the absolute
// cycle total in chunks, calls BeginMeasurement at exactly cycle warmup
// unless measurement has already begun (a restored system may be past
// it), and finishes with FinishAudit. A chunk is at most chunk cycles
// (<= 0: unbounded) and is cut short at the warm-up boundary and at
// total. After every chunk except the one that reaches total it calls
// atChunk (when non-nil), which returns the next chunk's length; an
// error from it aborts the run. Chunking cannot change results: Step(n)
// twice is Step(2n).
func (s *System) RunTo(warmup, total, chunk int64, atChunk func() (int64, error)) error {
	for s.cycle < total {
		next := total
		if chunk > 0 && chunk < total-s.cycle {
			next = s.cycle + chunk
		}
		if !s.MeasurementStarted() && next > warmup {
			next = warmup
		}
		s.Step(next - s.cycle)
		if !s.MeasurementStarted() && s.cycle >= warmup {
			s.BeginMeasurement()
		}
		if atChunk != nil && s.cycle < total {
			var err error
			if chunk, err = atChunk(); err != nil {
				return err
			}
		}
	}
	s.FinishAudit()
	return nil
}

// Run is the convenience entry point: simulate warmup cycles, then
// measure for window cycles and return the results.
func Run(cfg Config, warmup, window int64) (Result, error) {
	_, res, err := RunSystem(cfg, warmup, window)
	return res, err
}

// RunSystem is Run returning the simulated System as well, for callers
// that need post-run access to its telemetry (epoch samples, the
// fairness monitor, the metrics registry).
func RunSystem(cfg Config, warmup, window int64) (*System, Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	if err := s.RunTo(warmup, warmup+window, 0, nil); err != nil {
		return nil, Result{}, err
	}
	return s, s.Results(), nil
}
