package fqms

import (
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

func TestBenchmarksSuite(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 20 {
		t.Fatalf("suite size %d", len(bs))
	}
	names := BenchmarkNames()
	if names[0] != "art" {
		t.Errorf("first benchmark %q", names[0])
	}
	if _, err := BenchmarkByName("vpr"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkByName("bogus"); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

func TestFourCoreWorkloadsShape(t *testing.T) {
	wls := FourCoreWorkloads()
	if len(wls) != 4 || len(wls[0]) != 4 {
		t.Fatalf("workloads = %v", wls)
	}
}

func TestDDR2800Exposed(t *testing.T) {
	tt := DDR2800()
	if tt.TCL != 5 || tt.TRAS != 18 || tt.BL2 != 4 {
		t.Errorf("Table 6 constants: %+v", tt)
	}
}

func TestEqualShare(t *testing.T) {
	s := EqualShare(4)
	if s.Num != 1 || s.Den != 4 {
		t.Errorf("EqualShare(4) = %+v", s)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(SystemConfig{}); err == nil {
		t.Error("accepted empty workload")
	}
	if _, err := Run(SystemConfig{Workload: []string{"bogus"}}); err == nil {
		t.Error("accepted unknown benchmark")
	}
	if _, err := Run(SystemConfig{Workload: []string{"vpr"}, Scheduler: "bogus"}); err == nil {
		t.Error("accepted unknown scheduler")
	}
	// Hostile configurations are refused at construction: an error, not
	// a result, a panic or a hang (the builder's own table is
	// sim.TestNamedConfig).
	for name, cfg := range map[string]SystemConfig{
		"overcommitted shares": {Scheduler: FQVFTF, Shares: []Share{{Num: 3, Den: 4}, {Num: 3, Den: 4}}},
		"negative channels":    {Channels: -2},
		"a million channels":   {Channels: 1 << 20},
		"negative scale":       {MemoryScale: -3},
		"overflowing scale":    {MemoryScale: 1 << 40},
	} {
		cfg.Workload = []string{"vpr", "art"}
		cfg.Warmup, cfg.Window = 2_000, 20_000
		if res, err := Run(cfg); err == nil {
			t.Errorf("%s: ran and reported %+v", name, res)
		}
	}
}

// TestFrontDoorsAgree: the library entry point, the experiment runner
// and a sweep unit all describe vpr+art under FQ-VFTF through the one
// builder and drive it through the one loop, so at equal seed and
// windows they must report the same Result.
func TestFrontDoorsAgree(t *testing.T) {
	const warmup, window, seed = 5_000, 30_000, 7
	mix := []string{"vpr", "art"}

	viaRun, err := Run(SystemConfig{Workload: mix, Scheduler: FQVFTF, Warmup: warmup, Window: window, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	viaRunner, err := exp.NewRunner(exp.Config{Warmup: warmup, Window: window, Seed: seed}).CoRun(mix, "FQ-VFTF")
	if err != nil {
		t.Fatal(err)
	}
	ucfg, err := exp.ArenaCellUnit(mix, "FQ-VFTF", Share{}, 1).SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	ucfg.Seed = seed
	viaUnit, err := sim.Run(ucfg, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaRun, viaRunner) {
		t.Errorf("fqms.Run and exp.Runner.CoRun disagree:\n%+v\n%+v", viaRun, viaRunner)
	}
	if !reflect.DeepEqual(viaRun, viaUnit) {
		t.Errorf("fqms.Run and the arena unit disagree:\n%+v\n%+v", viaRun, viaUnit)
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(SystemConfig{
		Workload:  []string{"vpr", "art"},
		Scheduler: FQVFTF,
		Warmup:    5_000,
		Window:    40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "FQ-VFTF" {
		t.Errorf("policy = %q", res.PolicyName)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	for _, tr := range res.Threads {
		if tr.IPC <= 0 || tr.BusUtil <= 0 {
			t.Errorf("thread %s: %+v", tr.Benchmark, tr)
		}
	}
}

func TestRunMemoryScaleSlowsSystem(t *testing.T) {
	fast, err := Run(SystemConfig{Workload: []string{"ammp"}, Warmup: 5_000, Window: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(SystemConfig{Workload: []string{"ammp"}, MemoryScale: 4, Warmup: 5_000, Window: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Threads[0].IPC >= fast.Threads[0].IPC {
		t.Errorf("4x scaled memory did not slow ammp: %.3f vs %.3f",
			slow.Threads[0].IPC, fast.Threads[0].IPC)
	}
	if slow.Threads[0].AvgReadLatency <= fast.Threads[0].AvgReadLatency {
		t.Error("scaled memory did not raise latency")
	}
}

func TestNewExperimentRunner(t *testing.T) {
	r := NewExperimentRunner(ExperimentConfig{Warmup: 5_000, Window: 30_000})
	if r == nil {
		t.Fatal("nil runner")
	}
	tr, err := r.Solo("crafty", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.IPC <= 0 {
		t.Errorf("solo crafty IPC = %v", tr.IPC)
	}
}

// TestSchedulerConstantsCoverEveryPolicy: the Scheduler constants are
// the simulator's policy table, name for name and in its order, so a
// scheduler added to sim.policies without a constant here fails.
func TestSchedulerConstantsCoverEveryPolicy(t *testing.T) {
	var got []string
	for _, s := range []Scheduler{FCFS, FRFCFS, FRVFTF, FQVFTF, FRVSTF, BLISS, SlowFair, BankBW} {
		got = append(got, string(s))
	}
	if want := sim.PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Scheduler constants %v, sim.PolicyNames() %v", got, want)
	}
}
