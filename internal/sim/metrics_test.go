package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// epoch is one sampled epoch in the map form of its JSON encoding, for
// assertions by name.
type epoch struct {
	Epoch      int64            `json:"epoch"`
	Cycle      int64            `json:"cycle"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Gauges     map[string]int64 `json:"gauges,omitempty"`
	Histograms map[string]struct {
		Count   int64      `json:"count"`
		Sum     int64      `json:"sum"`
		Buckets [][2]int64 `json:"buckets,omitempty"`
	} `json:"histograms,omitempty"`
}

// epochs decodes a sampled system's retained epochs.
func epochs(t testing.TB, s *System) []epoch {
	t.Helper()
	b, err := json.Marshal(s.Sampler().Series().Samples)
	if err != nil {
		t.Fatal(err)
	}
	var out []epoch
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEquivalence is the observability layer's acceptance test:
// enabling the metrics registry and the Chrome trace writer must leave
// the simulation's Result bit-identical in both the event-driven and
// strict modes, the strict sampled run's epoch and fairness series must
// equal the fast one's, and the instrumented run's artifacts must be
// internally consistent with the simulation's own statistics.
func TestMetricsEquivalence(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	const warmup, window = 20_000, 80_000
	const sampleInterval = 10_000
	run := func(strict, instrumented, sampled bool) (Result, *metrics.Registry, *bytes.Buffer, int64, *System) {
		cfg := Config{
			Workload: []trace.Profile{art, vpr},
			Policy:   FQVFTF,
			Seed:     23,
			Strict:   strict,
		}
		var reg *metrics.Registry
		var buf *bytes.Buffer
		var tw *metrics.TraceWriter
		if instrumented {
			reg = metrics.New()
			buf = &bytes.Buffer{}
			tw = metrics.NewTraceWriter(buf)
			cfg.Metrics = reg
			cfg.Trace = tw
		}
		if sampled {
			cfg.SampleInterval = sampleInterval
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(warmup)
		s.BeginMeasurement()
		s.Step(window)
		ctrl := s.Controller()
		var readsDone int64
		for i := 0; i < 2; i++ {
			readsDone += ctrl.Stats(i).ReadsDone
		}
		if tw != nil {
			if err := tw.Close(); err != nil {
				t.Fatalf("trace close: %v", err)
			}
		}
		return s.Results(), reg, buf, readsDone, s
	}

	base, _, _, _, _ := run(false, false, false)
	inst, reg, buf, readsDone, instSys := run(false, true, false)
	issuedACT := instSys.Controller().CommandCount(dram.KindActivate)
	strictInst, _, _, _, strictSys := run(true, true, true)
	sampledOut, _, _, _, sampledSys := run(false, true, true)

	// The instrumented runs stream a Chrome trace, so they cannot
	// checkpoint: their Results and series are what is compared.
	if !reflect.DeepEqual(base, inst) {
		t.Errorf("metrics+trace changed the Result:\n off: %+v\n on:  %+v", base, inst)
	}
	if !reflect.DeepEqual(base, strictInst) {
		t.Errorf("instrumented strict run diverges:\n off:    %+v\n strict: %+v", base, strictInst)
	}
	if !reflect.DeepEqual(base, sampledOut) {
		t.Errorf("epoch-sampled run diverges:\n off:     %+v\n sampled: %+v", base, sampledOut)
	}
	// The series record the machine, not how it was stepped: the strict
	// run examines every bank on every cycle and retries every refused
	// Accept per cycle, and none of that may show in an epoch.
	if !reflect.DeepEqual(epochs(t, strictSys), epochs(t, sampledSys)) {
		t.Error("strict and fast runs sampled different epoch series")
	}
	_, strictFair := fairness(strictSys)
	_, fair := fairness(sampledSys)
	if !reflect.DeepEqual(strictFair, fair) {
		t.Error("strict and fast runs sampled different fairness series")
	}

	// The sampled run's time series must be internally consistent:
	// every sample on an exact epoch boundary, one sample per boundary
	// plus the cycle-0 baseline, and counter deltas summing to the
	// cumulative totals.
	samples := epochs(t, sampledSys)
	wantSamples := int((warmup+window)/sampleInterval) + 1
	if len(samples) != wantSamples {
		t.Fatalf("sampler retained %d samples, want %d", len(samples), wantSamples)
	}
	var invSum int64
	for i, sm := range samples {
		if sm.Cycle%sampleInterval != 0 {
			t.Errorf("sample %d at cycle %d: not an epoch boundary", i, sm.Cycle)
		}
		if sm.Cycle != int64(i)*sampleInterval {
			t.Errorf("sample %d at cycle %d, want %d", i, sm.Cycle, int64(i)*sampleInterval)
		}
		invSum += sm.Counters["memctrl.fq.inversions"]
	}
	last := samples[len(samples)-1]
	if got := last.Gauges["sim.cycle"]; got != warmup+window {
		t.Errorf("last sample sim.cycle = %d, want %d", got, warmup+window)
	}
	snapSampled, ok := sampledSys.Sampler().Latest()
	if !ok {
		t.Fatal("sampler has no published snapshot")
	}
	if invSum != snapSampled.Counters["memctrl.fq.inversions"] {
		t.Errorf("inversion deltas sum to %d, cumulative is %d",
			invSum, snapSampled.Counters["memctrl.fq.inversions"])
	}
	// The fairness series rides the same epoch clock and conserves
	// service: per-epoch service deltas sum to each thread's total
	// data-bus cycles.
	if len(fair) != wantSamples {
		t.Fatalf("fairness series retained %d samples, want %d", len(fair), wantSamples)
	}
	var svc [2]int64
	for _, fs := range fair {
		for tdx := 0; tdx < 2; tdx++ {
			svc[tdx] += fs.Service[tdx]
		}
	}
	for tdx := 0; tdx < 2; tdx++ {
		if got := sampledSys.Controller().Stats(tdx).DataBusCycles; svc[tdx] != got {
			t.Errorf("thread %d fairness service sums to %d, controller charged %d", tdx, svc[tdx], got)
		}
	}

	// The instrumented run's registry must agree with the simulation's
	// own bookkeeping.
	snap := reg.Snapshot()
	if got := snap.Gauges["sim.cycle"]; got != warmup+window {
		t.Errorf("sim.cycle = %d, want %d", got, warmup+window)
	}
	if got := snap.Gauges["memctrl.cmd.ACT"]; got != issuedACT {
		t.Errorf("memctrl.cmd.ACT = %d, want %d", got, issuedACT)
	}
	var histReads int64
	for i := 0; i < 2; i++ {
		h := snap.Histograms["sim.thread"+string(rune('0'+i))+".read_latency"]
		if h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 {
			t.Errorf("thread %d latency histogram implausible: %+v", i, h)
		}
		histReads += h.Count
	}
	if histReads != readsDone {
		t.Errorf("latency histogram holds %d reads, controller completed %d", histReads, readsDone)
	}
	// Per-bank command counters must sum to the controller's totals.
	var actSum int64
	for name, v := range snap.Gauges {
		if matched, _ := pathMatch(name, "dram.chan", ".activates"); matched {
			actSum += v
		}
	}
	if actSum != issuedACT {
		t.Errorf("per-bank activates sum to %d, controller issued %d", actSum, issuedACT)
	}

	// The trace must be valid Chrome trace-event JSON with events.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var acts, reads int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "ACT":
			acts++
		case "read":
			reads++
		}
	}
	if int64(acts) != issuedACT {
		t.Errorf("trace has %d ACT events, controller issued %d", acts, issuedACT)
	}
	if int64(reads) != readsDone {
		t.Errorf("trace has %d read lifetimes, controller completed %d", reads, readsDone)
	}
}

// pathMatch reports whether s has the given prefix and suffix.
func pathMatch(s, prefix, suffix string) (bool, string) {
	if len(s) < len(prefix)+len(suffix) || s[:len(prefix)] != prefix || s[len(s)-len(suffix):] != suffix {
		return false, ""
	}
	return true, s[len(prefix) : len(s)-len(suffix)]
}

// TestStallCyclesAccounting sanity-checks the ROB-stall measure: a
// memory-bound thread sharing the bus must stall a nonzero but bounded
// number of cycles, and the fast/strict equivalence (asserted above via
// Result.StallCycles) ensures the skip-credit path agrees with the
// per-cycle count.
func TestStallCyclesAccounting(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workload: []trace.Profile{art, art}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(50_000)
	res := s.Results()
	for i, tr := range res.Threads {
		if tr.StallCycles <= 0 {
			t.Errorf("thread %d: no ROB stalls in a memory-bound co-run", i)
		}
		if tr.StallCycles > res.Cycles {
			t.Errorf("thread %d: %d stall cycles exceed the %d-cycle window", i, tr.StallCycles, res.Cycles)
		}
	}
}
