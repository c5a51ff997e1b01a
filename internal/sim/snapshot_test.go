package sim

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestCheckpointFileRoundTrip exercises the atomic file helpers.
func TestCheckpointFileRoundTrip(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: []trace.Profile{art, art}, Policy: FQVFTF, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5_000)
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := s.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycle() != s.Cycle() {
		t.Fatalf("restored cycle %d, want %d", r.Cycle(), s.Cycle())
	}
	var a, b bytes.Buffer
	if err := s.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("file round trip lost state")
	}
}

// TestRestoreConfigMismatch: a snapshot restored under any different
// configuration — run or machine — must fail with an error, not silently
// resume a different experiment. The stepping mode is not part of it: a
// fast checkpoint restores under Strict and finishes as the
// uninterrupted run does.
func TestRestoreConfigMismatch(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           11,
		SampleInterval: 1_000,
	}
	s, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(4_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	mutations := map[string]func(*Config){
		"policy":   func(c *Config) { c.Policy = FRFCFS },
		"seed":     func(c *Config) { c.Seed = 12 },
		"audit":    func(c *Config) { c.Audit = true },
		"sampling": func(c *Config) { c.SampleInterval = 0 },
		"interval": func(c *Config) { c.SampleInterval = 2_000 },
		"workload": func(c *Config) { c.Workload = []trace.Profile{vpr, art} },
		"cores":    func(c *Config) { c.Workload = []trace.Profile{art, vpr, art} },
		"transit":  func(c *Config) { c.ReqTransit = 20 },
		"geometry": func(c *Config) { c.Mem = memctrl.DefaultConfig(2); c.Mem.Channels = 2 },
		"tREF": func(c *Config) {
			c.Mem.DRAM = dram.DefaultConfig()
			c.Mem.DRAM.Timing.TREF = 7_000
		},
		"tRCD-tRAS": func(c *Config) {
			c.Mem.DRAM = dram.DefaultConfig()
			c.Mem.DRAM.Timing.TRCD, c.Mem.DRAM.Timing.TRAS = 6, 19
		},
		"row policy":     func(c *Config) { c.Mem.RowPolicy = memctrl.OpenRow },
		"shared buffers": func(c *Config) { c.Mem.SharedBuffers = true },
		"refresh off":    func(c *Config) { c.Mem.DisableRefresh = true },
		"linear mapper": func(c *Config) {
			m, err := addrmap.NewLinear(addrmap.Table5())
			if err != nil {
				t.Fatal(err)
			}
			c.Mem.Mapper = m
		},
		"memory scale": func(c *Config) {
			scaled, err := NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			c.Mem = scaled.Mem
		},
		"cpu width": func(c *Config) {
			c.CPU = cpu.DefaultConfig()
			c.CPU.DispatchWidth = 2
		},
		"L2 latency": func(c *Config) {
			c.Cache = cache.DefaultHierarchyConfig()
			c.Cache.L2.Latency = 14
		},
	}
	for name, mutate := range mutations {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Restore(cfg, bytes.NewReader(snap)); err == nil {
				t.Fatalf("restore under mutated config %q succeeded; want error", name)
			}
		})
	}

	// The unmutated config still restores; that it restores under the
	// other stepping mode too is the equivalence table's checkpoint column.
	if _, err := Restore(base, bytes.NewReader(snap)); err != nil {
		t.Fatalf("restore under original config failed: %v", err)
	}
}

// TestCheckpointRefusesTraceSink: a streaming trace sink cannot be
// resumed, so Checkpoint must refuse rather than write a snapshot that
// silently truncates the timeline.
func TestCheckpointRefusesTraceSink(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tw := metrics.NewTraceWriter(&sink)
	cfg := Config{Workload: []trace.Profile{art}, Trace: tw}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(1_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err == nil {
		t.Fatal("checkpoint with a trace sink succeeded; want error")
	}
}
