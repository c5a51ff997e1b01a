package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTargetUtilizationsWaterfill(t *testing.T) {
	cases := []struct {
		name string
		solo []float64
		want []float64
	}{
		{
			// Everyone demands more than 1/4: equal split, no excess.
			name: "saturated",
			solo: []float64{0.9, 0.6, 0.4, 0.3},
			want: []float64{0.25, 0.25, 0.25, 0.25},
		},
		{
			// One light thread frees 0.15; split three ways.
			name: "one light",
			solo: []float64{0.9, 0.6, 0.4, 0.10},
			want: []float64{0.30, 0.30, 0.30, 0.10},
		},
		{
			// Two light threads; excess tops the others up equally.
			name: "two light",
			solo: []float64{0.9, 0.6, 0.05, 0.05},
			want: []float64{0.45, 0.45, 0.05, 0.05},
		},
		{
			// Redistribution must cascade: the third thread saturates at
			// its solo demand, so its leftover goes to the first two.
			name: "cascade",
			solo: []float64{0.9, 0.9, 0.30, 0.02},
			// share 0.25 each; thread 3 leaves 0.23, split 3 ways =
			// +0.0767 -> thread 2 caps at 0.30 (uses 0.05 of 0.0767),
			// leftover cascades to threads 0 and 1: 0.25 + (0.48-0.30-0.02)/2... =>
			// final: t0 = t1 = (1 - 0.30 - 0.02)/2 = 0.34.
			want: []float64{0.34, 0.34, 0.30, 0.02},
		},
		{
			// Total demand below capacity: everyone gets their solo.
			name: "undersubscribed",
			solo: []float64{0.1, 0.1, 0.1, 0.1},
			want: []float64{0.1, 0.1, 0.1, 0.1},
		},
	}
	for _, c := range cases {
		got := TargetUtilizations(c.solo, 1.0)
		for i := range c.want {
			if !almost(got[i], c.want[i], 1e-6) {
				t.Errorf("%s: target[%d] = %v, want %v (all: %v)", c.name, i, got[i], c.want[i], got)
				break
			}
		}
	}
	if TargetUtilizations(nil, 1) != nil {
		t.Error("empty input")
	}
}

func TestTargetUtilizationsInvariants(t *testing.T) {
	solos := [][]float64{
		{0.5, 0.5, 0.5, 0.5},
		{1, 0, 0.2, 0.7},
		{0.33, 0.12, 0.9, 0.01},
	}
	for _, solo := range solos {
		got := TargetUtilizations(solo, 1.0)
		var sum float64
		for i := range got {
			if got[i] > solo[i]+1e-9 {
				t.Errorf("target %v exceeds solo %v", got[i], solo[i])
			}
			sum += got[i]
		}
		if sum > 1+1e-9 {
			t.Errorf("targets %v oversubscribe capacity", got)
		}
	}
}

func makeTwoCore() TwoCoreResult {
	return TwoCoreResult{Rows: []SubjectRow{
		{Subject: "a", Policy: "FR-FCFS", NormIPC: 0.5, BgNormIPC: 1.5, HMNormIPC: 0.75, AggBusUtil: 0.9, AggBankUtil: 0.4},
		{Subject: "a", Policy: "FQ-VFTF", NormIPC: 1.0, BgNormIPC: 1.0, HMNormIPC: 1.0, AggBusUtil: 0.85, AggBankUtil: 0.45},
		{Subject: "b", Policy: "FR-FCFS", NormIPC: 0.8, BgNormIPC: 1.2, HMNormIPC: 0.96, AggBusUtil: 0.8, AggBankUtil: 0.35},
		{Subject: "b", Policy: "FQ-VFTF", NormIPC: 1.2, BgNormIPC: 1.2, HMNormIPC: 1.2, AggBusUtil: 0.8, AggBankUtil: 0.4},
	}}
}

func TestTwoCoreDerivedStats(t *testing.T) {
	tc := makeTwoCore()
	if got := tc.ByPolicy("FQ-VFTF"); len(got) != 2 || got[0].Subject != "a" {
		t.Fatalf("ByPolicy = %+v", got)
	}
	met, total := tc.QoSCount("FQ-VFTF", 0.95)
	if met != 2 || total != 2 {
		t.Errorf("QoS = %d/%d", met, total)
	}
	met, _ = tc.QoSCount("FR-FCFS", 0.95)
	if met != 0 {
		t.Errorf("FR-FCFS QoS met = %d", met)
	}
	mean, max := tc.Improvement("FQ-VFTF", "FR-FCFS")
	// a: 1.0/0.75 - 1 = 1/3; b: 1.2/0.96 - 1 = 0.25; mean = 0.2917.
	if !almost(mean, (1.0/0.75+1.2/0.96)/2-1, 1e-9) {
		t.Errorf("mean improvement = %v", mean)
	}
	if !almost(max, 1.0/0.75-1, 1e-9) {
		t.Errorf("max improvement = %v", max)
	}
	arith, harm := tc.MeanNormIPC("FR-FCFS")
	if !almost(arith, 0.65, 1e-9) || harm >= arith {
		t.Errorf("means = %v, %v", arith, harm)
	}
	if !almost(tc.MeanAggBusUtil("FR-FCFS"), 0.85, 1e-9) {
		t.Errorf("agg bus = %v", tc.MeanAggBusUtil("FR-FCFS"))
	}
	if !almost(tc.MeanAggBankUtil("FQ-VFTF"), 0.425, 1e-9) {
		t.Errorf("agg bank = %v", tc.MeanAggBankUtil("FQ-VFTF"))
	}
}

func TestFigure8DerivedStats(t *testing.T) {
	f8 := Figure8Result{Outcomes: []WorkloadOutcome{
		{Workload: []string{"x", "y"}, Policy: "FR-FCFS", HMNormIPC: 1.0,
			Threads: []ThreadOutcome{{Benchmark: "x", NormIPC: 0.8}, {Benchmark: "y", NormIPC: 1.4}}},
		{Workload: []string{"x", "y"}, Policy: "FQ-VFTF", HMNormIPC: 1.2,
			Threads: []ThreadOutcome{{Benchmark: "x", NormIPC: 1.1}, {Benchmark: "y", NormIPC: 1.3}}},
	}}
	per, mean, max := f8.Improvements("FQ-VFTF", "FR-FCFS")
	if len(per) != 1 || !almost(per[0], 0.2, 1e-9) || !almost(mean, 0.2, 1e-9) || !almost(max, 0.2, 1e-9) {
		t.Errorf("improvements = %v %v %v", per, mean, max)
	}
	met, total := f8.QoSCount("FQ-VFTF", 0.95)
	if met != 2 || total != 2 {
		t.Errorf("QoS = %d/%d", met, total)
	}
	met, _ = f8.QoSCount("FR-FCFS", 0.95)
	if met != 1 {
		t.Errorf("FR-FCFS QoS met = %d", met)
	}
}

func TestFigure9Stats(t *testing.T) {
	f9 := Figure9Result{Points: []ScatterPoint{
		{Policy: "FR-FCFS", NormBusUtil: 0.3},
		{Policy: "FR-FCFS", NormBusUtil: 1.7},
		{Policy: "FQ-VFTF", NormBusUtil: 0.9},
		{Policy: "FQ-VFTF", NormBusUtil: 0.95},
	}}
	if v := f9.Variance("FR-FCFS"); !almost(v, 0.49, 1e-9) {
		t.Errorf("FR-FCFS variance = %v", v)
	}
	if v := f9.Variance("FQ-VFTF"); v > 0.001 {
		t.Errorf("FQ-VFTF variance = %v", v)
	}
	mean, min, max := f9.MeanNormUtil("FQ-VFTF")
	if !almost(mean, 0.925, 1e-9) || min != 0.9 || max != 0.95 {
		t.Errorf("mean/min/max = %v %v %v", mean, min, max)
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(QuickConfig())
	if _, err := r.Solo("crafty", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Solo("crafty", 1); err != nil {
		t.Fatal(err)
	}
	keys := r.sortedKeys()
	if len(keys) != 1 || keys[0] != "solo/crafty/x1" {
		t.Errorf("memo keys = %v", keys)
	}
	if _, err := r.Solo("nonesuch", 1); err == nil {
		t.Error("accepted unknown benchmark")
	}
	if _, err := r.CoRun([]string{"vpr", "art"}, "nonesuch"); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestFigure1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	r := NewRunner(QuickConfig())
	f1, err := r.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 3 {
		t.Fatalf("rows = %d", len(f1.Rows))
	}
	alone, crafty, art := f1.Rows[0], f1.Rows[1], f1.Rows[2]
	// The paper's Figure 1 shape: crafty leaves vpr essentially
	// untouched; art devastates it.
	if crafty.RelIPC < 0.9 {
		t.Errorf("crafty co-schedule dropped vpr to %.2f of solo", crafty.RelIPC)
	}
	if art.RelIPC > 0.55 {
		t.Errorf("art co-schedule left vpr at %.2f of solo; expected < 0.55", art.RelIPC)
	}
	if art.ReadLat < 2*alone.ReadLat {
		t.Errorf("art did not inflate vpr's latency: %v vs %v", art.ReadLat, alone.ReadLat)
	}
	var buf bytes.Buffer
	f1.Render(&buf)
	if !strings.Contains(buf.String(), "with art") {
		t.Error("render missing rows")
	}
}

func TestHeadlineRender(t *testing.T) {
	h := Headline{
		TwoCoreQoSMet: 18, TwoCoreQoSTotal: 19,
		TwoCoreWorstNormIPC:   0.94,
		TwoCoreAvgImprovement: 0.31, TwoCoreMaxImprovement: 0.76,
		TwoCoreFQBusUtil: 0.92,
		FourCoreQoSMet:   16, FourCoreQoSTotal: 16,
		FourCoreAvgImprovement: 0.14, FourCoreMaxImprovement: 0.41,
		VarianceFRFCFS: 0.2, VarianceFQVFTF: 0.0058,
	}
	var buf bytes.Buffer
	h.Render(&buf)
	out := buf.String()
	for _, want := range []string{"18/19", "+31%", "+76%", "16/16", "0.0058"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := PolicyNames()
	if len(names) != 3 || names[0] != "FR-FCFS" || names[2] != "FQ-VFTF" {
		t.Errorf("names = %v", names)
	}
}

func TestSubjectBenchmarksExcludeArt(t *testing.T) {
	subs := subjectBenchmarks()
	if len(subs) != 19 {
		t.Fatalf("%d subjects, want 19", len(subs))
	}
	for _, s := range subs {
		if s == "art" {
			t.Fatal("art must not be its own subject")
		}
	}
}

func TestShareSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	r := NewRunner(QuickConfig())
	sw, err := r.ShareSweep("")
	if err != nil {
		t.Fatal(err)
	}
	if sw.Benchmark != "art" || len(sw.Rows) != 7 {
		t.Fatalf("sweep shape: %+v", sw)
	}
	if !sw.Monotone() {
		t.Errorf("delivered bandwidth not monotone in allocation: %+v", sw.Rows)
	}
	// The middle point is the equal split.
	mid := sw.Rows[3]
	if mid.UtilRatio < 0.8 || mid.UtilRatio > 1.25 {
		t.Errorf("equal split delivered ratio %.2f", mid.UtilRatio)
	}
	// The extreme splits deliver clearly asymmetric bandwidth.
	if sw.Rows[6].UtilRatio < 2 {
		t.Errorf("7/8 split delivered ratio %.2f, want >= 2", sw.Rows[6].UtilRatio)
	}
	if sw.Rows[0].UtilRatio > 0.5 {
		t.Errorf("1/8 split delivered ratio %.2f, want <= 0.5", sw.Rows[0].UtilRatio)
	}
	var buf bytes.Buffer
	sw.Render(&buf)
	if !strings.Contains(buf.String(), "Share sweep") {
		t.Error("render output missing")
	}
	if _, err := r.ShareSweep("bogus"); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

// TestTwoCoreShape is the full Figures 5-7 pipeline at test windows,
// asserting the paper's qualitative results.
func TestTwoCoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 57 co-schedules")
	}
	r := NewRunner(QuickConfig())
	tc, err := r.TwoCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Rows) != 19*3 {
		t.Fatalf("rows = %d", len(tc.Rows))
	}
	// FR-FCFS leaves many subjects below QoS; FQ-VFTF rescues nearly all.
	frMet, total := tc.QoSCount("FR-FCFS", 0.9)
	fqMet, _ := tc.QoSCount("FQ-VFTF", 0.9)
	if total != 19 {
		t.Fatalf("total = %d", total)
	}
	if frMet > 10 {
		t.Errorf("FR-FCFS met QoS on %d/19; interference too weak", frMet)
	}
	if fqMet < 16 {
		t.Errorf("FQ-VFTF met QoS on only %d/19", fqMet)
	}
	// Aggregate improvement positive, and each policy keeps the bus busy.
	mean, _ := tc.Improvement("FQ-VFTF", "FR-FCFS")
	if mean < 0.1 {
		t.Errorf("FQ improvement %.2f, want >= 0.10", mean)
	}
	for _, p := range PolicyNames() {
		if u := tc.MeanAggBusUtil(p); u < 0.7 {
			t.Errorf("%s aggregate bus util %.2f; bandwidth wasted", p, u)
		}
	}
	// vpr is among the hardest-hit subjects under FR-FCFS.
	for _, row := range tc.ByPolicy("FR-FCFS") {
		if row.Subject == "vpr" && row.NormIPC > 0.6 {
			t.Errorf("vpr under FR-FCFS at %.2f; expected severe loss", row.NormIPC)
		}
	}
}

// TestFigure8And9Shape runs the 4-core pipeline and checks the paper's
// headline: FQ-VFTF inverts the FR-FCFS favoritism and collapses the
// normalized-utilization variance by an order of magnitude.
func TestFigure8And9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 four-core workloads")
	}
	r := NewRunner(QuickConfig())
	f8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Outcomes) != 4*3 {
		t.Fatalf("outcomes = %d", len(f8.Outcomes))
	}
	// Workload 1 under FR-FCFS: most aggressive thread (art) on top,
	// least aggressive (ammp) at the bottom; FQ-VFTF flips it.
	fr := f8.ByPolicy("FR-FCFS")[0]
	fq := f8.ByPolicy("FQ-VFTF")[0]
	if !(fr.Threads[0].NormIPC > fr.Threads[3].NormIPC) {
		t.Errorf("FR-FCFS did not favor the aggressor: %+v", fr.Threads)
	}
	if !(fq.Threads[3].NormIPC > fq.Threads[0].NormIPC) {
		t.Errorf("FQ-VFTF did not favor the meek: %+v", fq.Threads)
	}
	met, total := f8.QoSCount("FQ-VFTF", 0.9)
	if met < total-1 {
		t.Errorf("FQ-VFTF QoS %d/%d", met, total)
	}
	f9, err := r.Figure9(f8)
	if err != nil {
		t.Fatal(err)
	}
	vFR, vFQ := f9.Variance("FR-FCFS"), f9.Variance("FQ-VFTF")
	if vFQ*5 > vFR {
		t.Errorf("variance did not collapse: FR-FCFS %.4f vs FQ-VFTF %.4f", vFR, vFQ)
	}
}
