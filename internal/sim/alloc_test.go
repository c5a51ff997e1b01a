package sim

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestStepZeroSteadyStateAllocs asserts the arena/ring contract: once
// warmed past its peak occupancy, Step allocates nothing — request slots
// recycle through the controller's free list, transit queues reuse their
// backing arrays, and attribution's per-slot accounting and the attack
// agents' generators recycle theirs. A sampled epoch adds what it keeps:
// one sampler record and the amortized growth of its ring. The rows are
// measured in turn, never in parallel: a heap count cannot share the
// process.
func TestStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	art, vpr := profile(t, "art"), profile(t, "vpr")
	quad := []trace.Profile{art, vpr, art, vpr}
	agents := []trace.Profile{profile(t, "stream"), profile(t, "bushog"), profile(t, "rowthrash"), profile(t, "diurnal")}
	rows := []struct {
		name     string
		policy   PolicyFactory
		workload []trace.Profile
		seed     uint64
		intf     bool    // attribution on
		sampled  bool    // registry and 10k-cycle epochs on
		step     int64   // cycles per measured Step
		max      float64 // allocations per Step
	}{
		{"fqvftf", FQVFTF, quad, 37, false, false, 5_000, 0},
		// The interval policies' Tick paths (blacklist promotion, boost
		// retarget, budget refill) are held to the same zero-alloc bar.
		{"bliss", BLISS, quad, 37, false, false, 5_000, 0},
		{"slowfair", SLOWFAIR, quad, 37, false, false, 5_000, 0},
		{"bankbw", BANKBW, quad, 37, false, false, 5_000, 0},
		{"fqvftf-sampled", FQVFTF, []trace.Profile{art, vpr}, 37, true, true, 10_000, 3},
		{"interference", FQVFTF, quad, 37, true, false, 5_000, 0},
		// Every agent kind at once, the stream agent's deeper queues
		// included.
		{"antagonist", FQVFTF, agents, 41, false, false, 5_000, 0},
	}
	// Warm far past peak queue/arena occupancy so every buffer has
	// reached its high-water capacity. The systems warm at once; only
	// the measurements must run alone.
	systems := make([]*System, len(rows))
	var wg sync.WaitGroup
	for i, tc := range rows {
		cfg := Config{Workload: tc.workload, Policy: tc.policy, Seed: tc.seed, Interference: tc.intf}
		cfg.Mem.Channels = 2
		if tc.sampled {
			cfg.Metrics = metrics.New()
			cfg.SampleInterval = 10_000
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = s
		wg.Add(1)
		go func() { defer wg.Done(); s.Step(200_000) }()
	}
	wg.Wait()
	for i, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(10, func() {
				systems[i].Step(tc.step)
			})
			if avg > tc.max {
				t.Errorf("%s Step allocates %.1f objects per %d cycles in steady state, want at most %v",
					tc.name, avg, tc.step, tc.max)
			}
		})
	}
}
