package sim

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestStepZeroSteadyStateAllocs asserts the arena/ring contract: once
// warmed past its peak occupancy, Step allocates nothing — request slots
// recycle through the controller's free list and transit queues reuse
// their backing arrays. A sampled epoch adds what it keeps: one sampler
// record, one fairness record, and the amortized growth of their rings.
func TestStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	quad := []trace.Profile{art, vpr, art, vpr}
	for _, tc := range []struct {
		name     string
		policy   PolicyFactory
		workload []trace.Profile
		sampled  bool    // registry, 10k-cycle epochs and attribution on
		step     int64   // cycles per measured Step
		max      float64 // allocations per Step
	}{
		{"fqvftf", FQVFTF, quad, false, 5_000, 0},
		// The interval policies' Tick paths (blacklist promotion, boost
		// retarget, budget refill) are held to the same zero-alloc bar.
		{"bliss", BLISS, quad, false, 5_000, 0},
		{"slowfair", SLOWFAIR, quad, false, 5_000, 0},
		{"bankbw", BANKBW, quad, false, 5_000, 0},
		{"fqvftf-sampled", FQVFTF, []trace.Profile{art, vpr}, true, 10_000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Workload: tc.workload,
				Policy:   tc.policy,
				Seed:     37,
			}
			cfg.Mem.Channels = 2
			if tc.sampled {
				cfg.Metrics = metrics.New()
				cfg.SampleInterval = 10_000
				cfg.Interference = true
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm far past peak queue/arena occupancy so every buffer
			// has reached its high-water capacity.
			s.Step(200_000)
			avg := testing.AllocsPerRun(10, func() {
				s.Step(tc.step)
			})
			if avg > tc.max {
				t.Errorf("%s Step allocates %.1f objects per %d cycles in steady state, want at most %v",
					tc.name, avg, tc.step, tc.max)
			}
		})
	}
}
