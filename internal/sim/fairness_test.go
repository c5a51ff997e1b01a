package sim

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fairness scores a sampled system's retained epochs.
func fairness(s *System) (memctrl.FairnessSummary, []memctrl.FairnessSample) {
	return memctrl.Fairness(s.Sampler().Series(-1), -1)
}

// TestFairnessSeriesBoundedVsDrift is the fairness-over-time acceptance
// test: on the paper's headline co-run (vpr sharing the memory system
// with the bandwidth hog art, equal shares), the epoch time series must
// show FQ-VFTF holding vpr's service share near its entitlement while
// FR-FCFS lets art starve it progressively harder.
//
// The simulator is deterministic for a fixed seed, so the margins below
// are derived from measured values with generous slack rather than
// guessed: at seed 5 over the QuickConfig window, vpr's cumulative
// backlogged shortfall is ~39.2k data-bus cycles under FR-FCFS versus
// ~26.0k under FQ-VFTF (1.51x), its worst single epoch 4190 vs 3028,
// and its mean service share over the last five epochs 0.058 vs 0.158.
func TestFairnessSeriesBoundedVsDrift(t *testing.T) {
	t.Parallel() // measures no allocation, so it may share the host
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	const (
		warmup   = 20_000
		window   = 120_000
		interval = 10_000
		vprT     = 0 // thread index of the subject
	)
	run := func(policy PolicyFactory) (memctrl.FairnessSummary, []memctrl.FairnessSample) {
		s, _, err := RunSystem(Config{
			Workload:       []trace.Profile{vpr, art},
			Policy:         policy,
			Seed:           5,
			SampleInterval: interval,
		}, warmup, window)
		if err != nil {
			t.Fatal(err)
		}
		return fairness(s)
	}
	fqSum, fqSamples := run(FQVFTF)
	frSum, frSamples := run(FRFCFS)

	wantEpochs := (warmup+window)/interval + 1
	if len(fqSamples) != wantEpochs || len(frSamples) != wantEpochs {
		t.Fatalf("epoch counts %d/%d, want %d", len(fqSamples), len(frSamples), wantEpochs)
	}

	// The hog is never shortchanged under either policy.
	if frSum.CumShortfall[1] != 0 || fqSum.CumShortfall[1] != 0 {
		t.Errorf("the bandwidth hog accumulated shortfall: FR-FCFS %.0f, FQ-VFTF %.0f",
			frSum.CumShortfall[1], fqSum.CumShortfall[1])
	}

	// Headline: FR-FCFS drifts — vpr's cumulative backlogged shortfall
	// substantially exceeds FQ-VFTF's over the same window.
	fq, fr := fqSum.CumShortfall[vprT], frSum.CumShortfall[vprT]
	if fq <= 0 || fr <= 0 {
		t.Fatalf("expected nonzero shortfall for the subject thread, got FQ=%.0f FR=%.0f", fq, fr)
	}
	if fr < 1.25*fq {
		t.Errorf("FR-FCFS shortfall %.0f not clearly above FQ-VFTF's %.0f (want >= 1.25x)", fr, fq)
	}

	// FQ also bounds the worst single epoch below FR-FCFS's.
	if fqSum.MaxEpochShortfall[vprT] >= frSum.MaxEpochShortfall[vprT] {
		t.Errorf("FQ-VFTF worst epoch shortfall %.0f not below FR-FCFS's %.0f",
			fqSum.MaxEpochShortfall[vprT], frSum.MaxEpochShortfall[vprT])
	}

	// End-of-window service share: by the last five epochs FR-FCFS has
	// starved vpr well below the share FQ-VFTF still delivers.
	tail := func(samples []memctrl.FairnessSample) float64 {
		var sum float64
		for _, sm := range samples[len(samples)-5:] {
			sum += sm.Share[vprT]
		}
		return sum / 5
	}
	if got := tail(frSamples); got >= 0.10 {
		t.Errorf("FR-FCFS tail share %.3f for vpr, expected starvation below 0.10", got)
	}
	if got := tail(fqSamples); got <= 0.12 {
		t.Errorf("FQ-VFTF tail share %.3f for vpr, expected sustained service above 0.12", got)
	}

	// The series itself is well-formed: cumulative shortfall is
	// monotone and matches the summary's total.
	for name, samples := range map[string][]memctrl.FairnessSample{"FQ-VFTF": fqSamples, "FR-FCFS": frSamples} {
		var prev float64
		for i, sm := range samples {
			if sm.CumShortfall[vprT] < prev {
				t.Errorf("%s: cumulative shortfall decreased at epoch %d", name, i)
			}
			prev = sm.CumShortfall[vprT]
		}
	}
	if last := fqSamples[len(fqSamples)-1].CumShortfall[vprT]; last != fq {
		t.Errorf("FQ-VFTF last sample cum shortfall %.0f != summary %.0f", last, fq)
	}
}

// TestFairnessPhiFallbackPerEpoch pins the series' phi sourcing: it
// must re-resolve the allocated share at every epoch boundary, not
// cache it at construction. For a shareless policy (BLISS) that means
// the 1/N fallback on every sample and SetShare reporting unsupported;
// for a share-carrying policy a mid-run SetShare must show up in every
// later sample's Phi while earlier samples keep the old value.
func TestFairnessPhiFallbackPerEpoch(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	const interval = 5_000

	// Shareless policy: phi falls back to 1/N on every epoch.
	s, err := New(Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         BLISS,
		Seed:           3,
		SampleInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.SetShare(0, core.Share{Num: 3, Den: 4}) {
		t.Fatal("SetShare on a shareless policy reported support")
	}
	s.Step(4 * interval)
	_, samples := fairness(s)
	if len(samples) == 0 {
		t.Fatal("no fairness samples taken")
	}
	for _, sm := range samples {
		for th, phi := range sm.Phi {
			if phi != 0.5 {
				t.Fatalf("epoch %d thread %d phi = %v, want the 1/N fallback 0.5", sm.Epoch, th, phi)
			}
		}
	}

	// Share-carrying policy: a mid-run reassignment moves phi in every
	// later epoch.
	s, err = New(Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           3,
		SampleInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(2 * interval)
	reassignedAt := s.Cycle()
	if !s.SetShare(0, core.Share{Num: 3, Den: 4}) || !s.SetShare(1, core.Share{Num: 1, Den: 4}) {
		t.Fatal("SetShare on FQ-VFTF reported unsupported")
	}
	s.Step(3 * interval)
	_, samples = fairness(s)
	for _, sm := range samples {
		want := 0.5
		if sm.Cycle > reassignedAt {
			want = 0.75
		}
		if math.Abs(sm.Phi[0]-want) > 1e-12 {
			t.Fatalf("epoch %d (cycle %d) thread 0 phi = %v, want %v", sm.Epoch, sm.Cycle, sm.Phi[0], want)
		}
	}
}

// fairnessGoldenRow is one run of testdata/fairness_golden.json: the
// fairness summary and series art+vpr produced at seed 5 over the
// QuickConfig window, sampled every 10k cycles.
type fairnessGoldenRow struct {
	Name         string                   `json:"name"`
	Interference bool                     `json:"interference"`
	Summary      memctrl.FairnessSummary  `json:"summary"`
	Samples      []memctrl.FairnessSample `json:"samples"`
}

// TestFairnessReductionGolden holds the reduction to the series the
// per-epoch fairness monitor it replaced recorded (the golden was taken
// from that monitor): every scheduler with attribution off and on, and
// FQ-VFTF with thread 0's share moved to 3/4 mid-run. Every float must
// match exactly.
func TestFairnessReductionGolden(t *testing.T) {
	t.Parallel() // measures no allocation, so it may share the host
	raw, err := os.ReadFile(filepath.Join("testdata", "fairness_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []fairnessGoldenRow
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(p PolicyFactory, intf bool) Config {
		return Config{Workload: []trace.Profile{art, vpr}, Policy: p, Seed: 5, SampleInterval: 10_000, Interference: intf}
	}
	var got []fairnessGoldenRow
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, intf := range []bool{false, true} {
			s, _, err := RunSystem(cfg(p, intf), 20_000, 120_000)
			if err != nil {
				t.Fatal(err)
			}
			sum, samples := fairness(s)
			got = append(got, fairnessGoldenRow{name, intf, sum, samples})
		}
	}
	s, err := New(cfg(FQVFTF, false))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(70_000)
	if !s.SetShare(0, core.Share{Num: 3, Den: 4}) {
		t.Fatal("SetShare on FQ-VFTF reported unsupported")
	}
	s.Step(70_000)
	sum, samples := fairness(s)
	got = append(got, fairnessGoldenRow{"FQ-VFTF share 3/4", false, sum, samples})

	if len(got) != len(golden) {
		t.Fatalf("%d runs, golden has %d", len(got), len(golden))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], golden[i]) {
			t.Errorf("%s (interference %v): fairness differs from the golden\n got: %+v\nwant: %+v",
				golden[i].Name, golden[i].Interference, got[i].Summary, golden[i].Summary)
		}
	}
}

// TestFairnessWrappedRing pins the reduction's window rule once the
// sampler's ring has wrapped: the oldest retained record has no
// predecessor and is not scored, the running shortfall starts at the
// first scored epoch, and the summary counts scored epochs only.
func TestFairnessWrappedRing(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workload: []trace.Profile{art, vpr}, Policy: FRFCFS, Seed: 5, SampleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(60_000)
	ser := s.Sampler().Series(-1)
	retained := make([]struct{ Epoch int64 }, ser.Samples.Len())
	for i := range retained {
		retained[i].Epoch, _ = ser.Samples.At(i)
	}
	if len(retained) != metrics.DefaultSampleCapacity || retained[0].Epoch == 0 {
		t.Fatalf("%d epochs retained from epoch %d: the ring has not wrapped", len(retained), retained[0].Epoch)
	}
	sum, scored := memctrl.Fairness(ser, -1)
	if len(scored) != len(retained)-1 {
		t.Fatalf("%d epochs scored of %d retained, want all but the oldest", len(scored), len(retained))
	}
	if scored[0].Epoch != retained[1].Epoch {
		t.Errorf("first scored epoch %d, want %d", scored[0].Epoch, retained[1].Epoch)
	}
	first, short := scored[0], false
	for th := range first.CumShortfall {
		own := 0.0
		if first.Backlogged[th] && first.Excess[th] < 0 {
			own, short = -first.Excess[th], true
		}
		if first.CumShortfall[th] != own {
			t.Errorf("thread %d: first scored cumulative shortfall %v, want its own epoch's %v", th, first.CumShortfall[th], own)
		}
	}
	if !short {
		t.Error("no thread fell short in the first scored epoch, so the window start is not exercised")
	}
	if sum.Epochs != int64(len(scored)) || sum.Epochs >= ser.Epochs {
		t.Errorf("summary counts %d epochs; %d scored, %d sampled", sum.Epochs, len(scored), ser.Epochs)
	}
	if last := scored[len(scored)-1].CumShortfall; !reflect.DeepEqual(last, sum.CumShortfall) {
		t.Errorf("last scored cumulative shortfall %v, summary %v", last, sum.CumShortfall)
	}
}
