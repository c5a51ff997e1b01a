package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestStepZeroSteadyStateAllocs asserts the arena/ring contract: once
// warmed past its peak occupancy, Step allocates nothing — request slots
// recycle through the controller's free list and transit queues reuse
// their backing arrays.
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
	for _, tc := range []struct {
		name   string
		policy PolicyFactory
	}{
		{"fqvftf", FQVFTF},
		// The interval policies' Tick paths (blacklist promotion, boost
		// retarget, budget refill) are held to the same zero-alloc bar.
		{"bliss", BLISS},
		{"slowfair", SLOWFAIR},
		{"bankbw", BANKBW},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Workload: []trace.Profile{art, vpr, art, vpr},
				Policy:   tc.policy,
				Seed:     37,
			}
			cfg.Mem.Channels = 2
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm far past peak queue/arena occupancy so every buffer
			// has reached its high-water capacity.
			s.Step(200_000)
			avg := testing.AllocsPerRun(10, func() {
				s.Step(5_000)
			})
			if avg != 0 {
				t.Errorf("%s Step allocates %.1f objects per 5k cycles in steady state, want 0", tc.name, avg)
			}
		})
	}
}
