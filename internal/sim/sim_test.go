package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

func profile(t testing.TB, name string) trace.Profile {
	t.Helper()
	p, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Workload: []trace.Profile{profile(t, "vpr"), profile(t, "art")}}
	got, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shares) != 2 || got.Shares[0] != core.EqualShare(2) {
		t.Errorf("shares = %v", got.Shares)
	}
	if got.Mem.Threads != 2 || got.Mem.ReadEntriesPerThread != 16 || got.Mem.WriteEntriesPerThread != 8 {
		t.Errorf("mem config = %+v", got.Mem)
	}
	if got.CPU.ROB != 128 {
		t.Errorf("cpu config = %+v", got.CPU)
	}
	if got.Cache.L2.SizeKB != 512 {
		t.Errorf("cache config = %+v", got.Cache)
	}
	if got.ReqTransit == 0 || got.RespTransit == 0 {
		t.Error("transits not defaulted")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty workload")
	}
	if _, err := New(Config{
		Workload: []trace.Profile{profile(t, "vpr")},
		Shares:   []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}},
	}); err == nil {
		t.Error("accepted share/core mismatch")
	}
	if _, err := New(Config{
		Workload: []trace.Profile{profile(t, "vpr")},
		Shares:   []core.Share{{Num: 0, Den: 1}},
	}); err == nil {
		t.Error("accepted invalid share")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"FCFS", "FR-FCFS", "FR-VFTF", "FQ-VFTF", "FR-VSTF", "frfcfs", "fqvftf"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PolicyByName("nonesuch"); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestRunProducesConsistentResults(t *testing.T) {
	res, err := Run(Config{Workload: []trace.Profile{profile(t, "ammp")}}, 10_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 60_000 {
		t.Errorf("window = %d", res.Cycles)
	}
	tr := res.Threads[0]
	if tr.Benchmark != "ammp" || tr.Instructions <= 0 || tr.IPC <= 0 {
		t.Errorf("thread result = %+v", tr)
	}
	if tr.BusUtil <= 0 || tr.BusUtil > 1 {
		t.Errorf("bus util = %v", tr.BusUtil)
	}
	if res.DataBusUtil < tr.BusUtil-1e-9 {
		t.Errorf("aggregate util %v below thread util %v", res.DataBusUtil, tr.BusUtil)
	}
	if tr.AvgReadLatency <= 0 {
		t.Errorf("latency = %v", tr.AvgReadLatency)
	}
	if res.PolicyName != "FR-FCFS" {
		t.Errorf("default policy = %q", res.PolicyName)
	}
	if res.BankUtil <= 0 || res.BankUtil > 1 {
		t.Errorf("bank util = %v", res.BankUtil)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := Config{
		Workload: []trace.Profile{profile(t, "vpr"), profile(t, "art")},
		Policy:   FQVFTF,
	}
	r1, err := Run(cfg, 5_000, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, 5_000, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Threads {
		if r1.Threads[i] != r2.Threads[i] {
			t.Fatalf("thread %d differs: %+v vs %+v", i, r1.Threads[i], r2.Threads[i])
		}
	}
	if r1.DataBusUtil != r2.DataBusUtil {
		t.Fatal("aggregate util differs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := Config{Workload: []trace.Profile{profile(t, "ammp")}}
	r1, _ := Run(cfg, 5_000, 40_000)
	cfg.Seed = 99
	r2, _ := Run(cfg, 5_000, 40_000)
	if r1.Threads[0].Instructions == r2.Threads[0].Instructions {
		t.Error("different seeds gave identical instruction counts (suspicious)")
	}
}

// TestSharesSteerBandwidth: giving one thread 3/4 of the memory system
// must give it more bandwidth than its 1/4 partner when both are
// bandwidth hungry.
func TestSharesSteerBandwidth(t *testing.T) {
	art := profile(t, "art")
	res, err := Run(Config{
		Workload: []trace.Profile{art, art},
		Shares:   []core.Share{{Num: 3, Den: 4}, {Num: 1, Den: 4}},
		Policy:   FQVFTF,
	}, 20_000, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	big, small := res.Threads[0].BusUtil, res.Threads[1].BusUtil
	if big <= small*1.5 {
		t.Fatalf("3/4-share thread got %.3f vs 1/4-share %.3f; shares not honored", big, small)
	}
}

// TestQoSShape is the paper's headline mechanism at test scale: under
// FR-FCFS an art background crushes vpr; under FQ-VFTF vpr stays near
// its 1/2-share baseline.
func TestQoSShape(t *testing.T) {
	t.Parallel() // measures no allocation, so it may share the host
	vpr, art := profile(t, "vpr"), profile(t, "art")
	base := Config{Workload: []trace.Profile{vpr}}
	base.Mem.DRAM = dram.DefaultConfig()
	base.Mem.DRAM.Timing = dram.DDR2800().Scale(2)
	bres, err := Run(base, 20_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	bIPC := bres.Threads[0].IPC

	frfcfs, err := Run(Config{Workload: []trace.Profile{vpr, art}, Policy: FRFCFS}, 20_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := Run(Config{Workload: []trace.Profile{vpr, art}, Policy: FQVFTF}, 20_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	normFR := frfcfs.Threads[0].IPC / bIPC
	normFQ := fq.Threads[0].IPC / bIPC
	if normFR > 0.7 {
		t.Errorf("FR-FCFS vpr normalized IPC %.2f; expected severe interference (< 0.7)", normFR)
	}
	if normFQ < 0.85 {
		t.Errorf("FQ-VFTF vpr normalized IPC %.2f; expected QoS (>= 0.85)", normFQ)
	}
	if normFQ < normFR {
		t.Error("FQ-VFTF did not improve on FR-FCFS")
	}
	// Latency ordering mirrors IPC.
	if fq.Threads[0].AvgReadLatency >= frfcfs.Threads[0].AvgReadLatency {
		t.Error("FQ-VFTF did not reduce the victim's read latency")
	}
}

func TestRefreshRunsInLongSimulations(t *testing.T) {
	t.Parallel() // measures no allocation, so it may share the host
	cfg := Config{Workload: []trace.Profile{profile(t, "ammp")}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(600_000) // beyond tREF = 280,000
	if s.Controller().CommandCount(5 /* refresh */) < 2 {
		t.Errorf("refreshes = %d, want >= 2", s.Controller().CommandCount(5))
	}
}

func TestBeginMeasurementExcludesWarmup(t *testing.T) {
	cfg := Config{Workload: []trace.Profile{profile(t, "crafty")}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(10_000)
	s.BeginMeasurement()
	s.Step(30_000)
	res := s.Results()
	if res.Cycles != 30_000 {
		t.Errorf("window = %d, want 30000", res.Cycles)
	}
	retiredAll := s.Core(0).Retired
	if res.Threads[0].Instructions >= retiredAll {
		t.Error("measurement window included warmup instructions")
	}
}

func TestResultsWithoutBeginMeasurement(t *testing.T) {
	cfg := Config{Workload: []trace.Profile{profile(t, "crafty")}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(20_000)
	res := s.Results()
	if res.Cycles != 20_000 {
		t.Errorf("cycles = %d, want full 20000", res.Cycles)
	}
	if res.Threads[0].Instructions != s.Core(0).Retired {
		t.Error("zero-snapshot results should cover everything")
	}
}

// TestResultsBeforeBeginMeasurementStoresNothing: reporting from cycle
// zero must not mark a baseline — the interference window stays the
// whole run and the system is still on the warm-up side of the boundary.
func TestResultsBeforeBeginMeasurementStoresNothing(t *testing.T) {
	s, err := New(Config{
		Workload:     []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:       FQVFTF,
		Interference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(50_000)
	if res := s.Results(); res.Cycles != 50_000 {
		t.Errorf("cycles = %d, want full 50000", res.Cycles)
	}
	if s.MeasurementStarted() {
		t.Error("Results started the measurement window")
	}
	got, _ := s.Interference()
	want, _ := s.Controller().InterferenceSnapshot(false)
	if got.Total == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("windowed attribution total %d, cumulative %d; want equal and non-zero", got.Total, want.Total)
	}
}

// TestMultiChannelThroughput: a second memory channel must raise a
// bandwidth-bound thread's throughput while keeping utilization a
// fraction of the doubled peak.
func TestMultiChannelThroughput(t *testing.T) {
	art := profile(t, "art")
	one, err := Run(Config{Workload: []trace.Profile{art, art}}, 10_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: []trace.Profile{art, art}}
	cfg.Mem.Channels = 2
	two, err := Run(cfg, 10_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	ipc1 := one.Threads[0].IPC + one.Threads[1].IPC
	ipc2 := two.Threads[0].IPC + two.Threads[1].IPC
	if ipc2 < ipc1*1.2 {
		t.Errorf("2-channel aggregate IPC %.2f not well above 1-channel %.2f", ipc2, ipc1)
	}
	if two.DataBusUtil > 1 || two.DataBusUtil <= 0 {
		t.Errorf("2-channel utilization %v out of range", two.DataBusUtil)
	}
}

// TestDynamicShareReassignment: moving a thread's share mid-run must
// move its measured bandwidth.
func TestDynamicShareReassignment(t *testing.T) {
	art := profile(t, "art")
	s, err := New(Config{
		Workload: []trace.Profile{art, art},
		Shares:   []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}},
		Policy:   FQVFTF,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(20_000)
	s.BeginMeasurement()
	s.Step(80_000)
	before := s.Results()

	if !s.SetShare(0, core.Share{Num: 7, Den: 8}) || !s.SetShare(1, core.Share{Num: 1, Den: 8}) {
		t.Fatal("FQ-VFTF should support share reassignment")
	}
	s.Step(20_000) // settle
	s.BeginMeasurement()
	s.Step(80_000)
	after := s.Results()

	ratioBefore := before.Threads[0].BusUtil / before.Threads[1].BusUtil
	ratioAfter := after.Threads[0].BusUtil / after.Threads[1].BusUtil
	if ratioBefore > 1.3 || ratioBefore < 0.7 {
		t.Errorf("equal shares gave ratio %.2f", ratioBefore)
	}
	if ratioAfter < 2 {
		t.Errorf("7/8 vs 1/8 shares gave ratio %.2f, want >= 2", ratioAfter)
	}
	// FR-FCFS has no shares to set.
	s2, _ := New(Config{Workload: []trace.Profile{art}})
	if s2.SetShare(0, core.Share{Num: 1, Den: 2}) {
		t.Error("FR-FCFS accepted a share reassignment")
	}
}

// TestSchedulingEconomy guards the precision of the memory scheduler's
// invalidation as counts, which repeat exactly for a seed, rather than
// as wall-clock: per issued SDRAM command, how many banks the
// controller examined, how many Policy.Key calls it made (a frozen key
// is read, not evaluated) and how many pending requests it walked to do
// so, on 4×art under FQ-VFTF (every bank backlogged; the benchmark's
// heavy-art4 and chan4-art4 at test size). The bounds sit about a tenth
// above what the code measures (5.70, 2.96 and 24.8 at one channel,
// 4.12, 1.86 and 5.6 at four). Interference attribution listens to the
// command stream and never enters the scheduler, so with it on every
// count must be exactly the same as without.
// A command used to wake every bank of its channel and drop every
// cached key on it, which on these runs measured 10.28 examinations and
// 67.90 key evaluations per command at one channel, 9.33 and 16.13 at
// four; every examination used to walk its bank's whole queue, 100.6
// slots per command at one channel and 19.1 at four (and did so with
// attribution on until it became an Observer); a bank holding for one
// request by key, or for a pending refresh, used to be woken by every
// command, 5.89 and 4.62 examinations; and every request of a re-ranked
// queue used to have its key evaluated, 18.78 and 4.87 per command,
// where under a policy whose keys follow arrival
// (core.ArrivalMonotone) only the first unfrozen request of each
// (class, read/write) group can rank first. So waking banks that cannot
// have become ready, dropping keys the command cannot have moved,
// re-ranking threads whose keys did not move, attribution doing any
// scheduler work, or FQ-VFTF losing its arrival declaration, fails here
// as a count long before it shows in a timing.
//
// The core side of the same runs is held the same way: every probe of
// the data caches, served or refused, per line fetched from memory, and
// core ticks run per cycle (System.StepCounts). A parked load is probed
// when it parks and again when an MSHR is free for it, and a core
// blocked on a fill is not ticked: 1.96 probes per miss and 0.48 ticks
// per cycle at one channel, 1.91 and 1.15 at four. When every fill
// un-parked every queued load and every cycle ticked every core these
// were about 29 and exactly 4. On 4×crafty the cores always have work
// once their caches are warm (3.98), and the count must show the gate
// bypassed, not merely harmless.
func TestSchedulingEconomy(t *testing.T) {
	t.Parallel() // counts work, not allocations or time

	const window = 150_000 // measured cycles
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		channels                    int
		maxExams, maxKeys, maxSlots float64 // per issued command
		maxProbes                   float64 // per L2 miss
		maxTicks                    float64 // per cycle
	}{
		{1, 6.5, 3.3, 27.5, 2.5, 0.6},
		{4, 4.6, 2.1, 6.3, 2.5, 1.4},
	} {
		run := func(intf bool) (*System, memctrl.SchedCounts, StepCounts) {
			cfg := Config{Workload: []trace.Profile{art, art, art, art}, Policy: FQVFTF, Seed: 1, Interference: intf}
			cfg.Mem.Channels = tc.channels
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Step(50_000)
			from, stepFrom := s.Controller().SchedCounts(), s.StepCounts()
			s.Step(window)
			to, stepTo := s.Controller().SchedCounts(), s.StepCounts()
			return s, memctrl.SchedCounts{
				BankExams:    to.BankExams - from.BankExams,
				SlotsVisited: to.SlotsVisited - from.SlotsVisited,
				KeyEvals:     to.KeyEvals - from.KeyEvals,
				CmdsIssued:   to.CmdsIssued - from.CmdsIssued,
			}, StepCounts{CoreTicks: stepTo.CoreTicks - stepFrom.CoreTicks}
		}
		s, sched, step := run(false)
		if _, intfSched, intfStep := run(true); intfSched != sched || intfStep != step {
			t.Errorf("channels=%d: attribution changed the scheduler's or the stepper's work: %+v %+v, without %+v %+v",
				tc.channels, intfSched, intfStep, sched, step)
		}
		cmds := float64(sched.CmdsIssued)
		exams := float64(sched.BankExams) / cmds
		keys := float64(sched.KeyEvals) / cmds
		slots := float64(sched.SlotsVisited) / cmds
		t.Logf("channels=%d: %.0f commands, %.2f bank examinations, %.1f slots and %.2f key evaluations per command",
			tc.channels, cmds, exams, slots, keys)
		if exams > tc.maxExams {
			t.Errorf("channels=%d: %.2f bank examinations per issued command, want at most %.2f", tc.channels, exams, tc.maxExams)
		}
		if keys > tc.maxKeys {
			t.Errorf("channels=%d: %.2f key evaluations per issued command, want at most %.2f", tc.channels, keys, tc.maxKeys)
		}
		if slots > tc.maxSlots {
			t.Errorf("channels=%d: %.1f pending slots walked per issued command, want at most %.1f", tc.channels, slots, tc.maxSlots)
		}

		var probes, misses int64 // cumulative, like the hierarchy's counters
		for i := range s.cores {
			h := s.Core(i).Hierarchy()
			probes += h.L1D().Hits + h.L1D().Misses + h.MSHRFullNACK
			misses += h.L2MissCount
		}
		perMiss := float64(probes) / float64(misses)
		ticks := float64(step.CoreTicks) / window
		t.Logf("channels=%d: %.2f hierarchy probes per L2 miss, %d core ticks, %.2f per cycle",
			tc.channels, perMiss, step.CoreTicks, ticks)
		if perMiss > tc.maxProbes {
			t.Errorf("channels=%d: %.2f hierarchy probes per L2 miss, want at most %.2f", tc.channels, perMiss, tc.maxProbes)
		}
		if ticks > tc.maxTicks {
			t.Errorf("channels=%d: %.2f core ticks per cycle, want at most %.2f", tc.channels, ticks, tc.maxTicks)
		}
	}

	crafty, err := trace.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workload: []trace.Profile{crafty, crafty, crafty, crafty}, Policy: FQVFTF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(200_000) // past the cold caches, the one time these cores wait on memory
	from := s.StepCounts()
	s.Step(window)
	to := s.StepCounts()
	ticks := float64(to.CoreTicks-from.CoreTicks) / window
	t.Logf("4×crafty: %.2f core ticks per cycle", ticks)
	if ticks < 3.8 {
		t.Errorf("4×crafty: %.2f core ticks per cycle, want at least 3.8", ticks)
	}
}
