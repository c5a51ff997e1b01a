package exp

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestCheckpointSizeCeiling holds two fixed checkpoints to at most a
// third of what format v10 wrote for them, when every cache line was 18
// fixed bytes, valid or not. Checkpoint bytes are a pure function of
// the run, so the ceiling is a count, not a timing:
//
//   - art+vpr under FQ-VFTF, seed 1, unsampled, at cycle 400,000:
//     v10 wrote 354,989 bytes;
//   - the arena's solo unit arena/solo/vpr/x2/ch1, seed 1, measuring
//     from cycle 5,000, at cycle 8,750 (a quarter of a unit's 35,000
//     cycles in the benchmark's fabric sweep): v10 wrote 178,449 bytes.
func TestCheckpointSizeCeiling(t *testing.T) {
	pair, err := sim.NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := ArenaSoloUnit("vpr", 2, 1).SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		cfg           sim.Config
		warmup, cycle int64
		v10           int
	}{
		{"art+vpr", pair, 0, 400_000, 354_989},
		{"arena/solo/vpr/x2/ch1", solo, 5_000, 8_750, 178_449},
	} {
		c.cfg.Seed = 1
		s, err := sim.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(c.warmup)
		if c.warmup > 0 {
			s.BeginMeasurement()
		}
		s.Step(c.cycle - c.warmup)
		var b bytes.Buffer
		if err := s.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() > c.v10/3 {
			t.Errorf("%s: checkpoint is %d bytes, above a third of v10's %d", c.name, b.Len(), c.v10)
		}
		t.Logf("%s: %d bytes (v10: %d)", c.name, b.Len(), c.v10)
	}
}
