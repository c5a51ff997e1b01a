package sim

import (
	"encoding/json"
	"testing"

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
	b, err := json.Marshal(s.Sampler().Series(-1).Samples)
	if err != nil {
		t.Fatal(err)
	}
	var out []epoch
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStallCyclesAccounting sanity-checks the ROB-stall measure: a
// memory-bound thread sharing the bus must stall a nonzero but bounded
// number of cycles, and the equivalence table's strict cells (which
// compare Result.StallCycles) hold the skip-credit path to the
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
