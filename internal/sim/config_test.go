package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// namedConfigRows is the builder's input boundary as one table: every
// hostile description must come back as an error — never a panic, a
// hang or a Config — and the legal edges next to each must pass. The
// same rows seed FuzzNamedConfig.
var namedConfigRows = []struct {
	name     string
	benches  string // comma-separated
	policy   string
	shares   []core.Share
	channels int
	scale    int
	wantErr  string // substring; "" = must succeed
}{
	{"paper pair", "vpr,art", "FQ-VFTF", nil, 0, 0, ""},
	{"default policy", "vpr", "", nil, 1, 1, ""},
	{"thirds fill the system exactly", "art,art,art", "FQ-VFTF", []core.Share{{Num: 1, Den: 3}, {Num: 1, Den: 3}, {Num: 1, Den: 3}}, 0, 0, ""},
	{"largest geometry", "vpr,bankhammer", "BLISS", nil, 16, 0, ""},
	{"slowest private baseline", "vpr", "", nil, 0, 549, ""},

	{"no cores", "", "FQ-VFTF", nil, 0, 0, "unknown benchmark"},
	{"unknown benchmark", "vpr,nosuch", "FQ-VFTF", nil, 0, 0, "nosuch"},
	{"unknown policy", "vpr", "nosuch", nil, 0, 0, "FR-VSTF"}, // lists what exists
	{"share count", "vpr,art", "FQ-VFTF", []core.Share{{Num: 1, Den: 2}}, 0, 0, "1 shares for 2 cores"},
	{"improper share", "vpr", "FQ-VFTF", []core.Share{{Num: 3, Den: 2}}, 0, 0, "invalid share"},
	{"zero denominator", "vpr", "FQ-VFTF", []core.Share{{Num: 1, Den: 0}}, 0, 0, "invalid share"},
	{"overcommitted shares", "vpr,art", "FQ-VFTF", []core.Share{{Num: 3, Den: 4}, {Num: 3, Den: 4}}, 0, 0, "more than the whole"},
	{"barely overcommitted", "vpr,art", "FQ-VFTF", []core.Share{{Num: 1, Den: 2}, {Num: 1_000_001, Den: 2_000_000}}, 0, 0, "more than the whole"},
	{"no common denominator", "vpr,art", "FQ-VFTF", []core.Share{{Num: 1, Den: 1<<62 + 1}, {Num: 1, Den: 1<<62 - 1}}, 0, 0, "common denominator"},
	{"negative channels", "vpr,art", "FQ-VFTF", nil, -2, 0, "power of two"},
	{"three channels", "vpr,art", "FQ-VFTF", nil, 3, 0, "power of two"},
	{"a million channels", "vpr,art", "FQ-VFTF", nil, 1 << 20, 0, "maximum of 16"},
	{"negative scale", "vpr", "", nil, 0, -3, "outside [0, 549]"},
	{"refresh never ends", "vpr", "", nil, 0, 550, "outside [0, 549]"},
	{"overflowing scale", "vpr", "", nil, 0, 1 << 40, "outside [0, 549]"},
}

func TestNamedConfig(t *testing.T) {
	for _, row := range namedConfigRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			cfg, err := NamedConfig(strings.Split(row.benches, ","), row.policy, row.shares, row.channels, row.scale)
			if row.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("error = %v, want one mentioning %q", err, row.wantErr)
				}
				if cfg.Workload != nil {
					t.Errorf("a refused description still returned a Config: %+v", cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(cfg); err != nil {
				t.Fatalf("New refused what NamedConfig accepted: %v", err)
			}
		})
	}

	// Construction is where overcommitment is refused; a live system's
	// share reassignments are one thread at a time and may pass through
	// an overcommitted state on the way to a legal one.
	cfg, err := NamedConfig([]string{"art", "art"}, "FQ-VFTF", nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SetShare(0, core.Share{Num: 3, Den: 4}) || !s.SetShare(1, core.Share{Num: 1, Den: 4}) {
		t.Fatal("FQ-VFTF refused a share reassignment")
	}
	s.Step(2_000)
}

// TestHostileConfigValues: values NamedConfig never sets, handed
// straight to New, are errors and never a panic or a run.
func TestHostileConfigValues(t *testing.T) {
	// shape sets one dimension of an otherwise Table 5 DRAM.
	shape := func(set func(*dram.Config)) func(*Config) {
		return func(c *Config) { c.Mem.DRAM = dram.DefaultConfig(); set(&c.Mem.DRAM) }
	}
	for _, row := range []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"negative request transit", func(c *Config) { c.ReqTransit = -1 }, "request -1, response 10"},
		{"negative response transit", func(c *Config) { c.RespTransit = -5 }, "response -5"},
		{"negative sample interval", func(c *Config) { c.SampleInterval = -1000 }, "interval -1000"},
		{"negative tRP", func(c *Config) { c.Mem = memctrl.DefaultConfig(2); c.Mem.DRAM.Timing.TRP = -5 }, "tRP (-5)"},
		{"zero tCCD", func(c *Config) { c.Mem = memctrl.DefaultConfig(2); c.Mem.DRAM.Timing.TCCD = 0 }, "tCCD (0)"},
		{"negative tWTR", func(c *Config) { c.Mem = memctrl.DefaultConfig(2); c.Mem.DRAM.Timing.TWTR = -1 }, "tWTR (-1)"},
		// A negative Table 4 precharge share, which the VTMS registers
		// would be moved backwards by.
		{"tRAS below tRCD plus tCL", func(c *Config) {
			c.Mem = memctrl.DefaultConfig(2)
			c.Mem.DRAM.Timing.TCL, c.Mem.DRAM.Timing.TRAS = 10, c.Mem.DRAM.Timing.TRCD
		}, "tRAS (5) < tRCD + tCL (5 + 10)"},
		// A row cycle shorter than the row's active time, and a core or
		// hierarchy with no room for one instruction, load or miss: each
		// is its own package's error before anything is sized from it.
		{"tRC below tRAS", func(c *Config) {
			c.Mem = memctrl.DefaultConfig(2)
			c.Mem.DRAM.Timing.TRC = c.Mem.DRAM.Timing.TRAS - 1
		}, "tRC (17) < tRAS (18)"},
		{"zero ROB", func(c *Config) { c.CPU = cpu.DefaultConfig(); c.CPU.ROB = 0 }, "cpu: invalid config {ROB:0 "},
		{"zero load queue", func(c *Config) { c.CPU = cpu.DefaultConfig(); c.CPU.LoadQueue = 0 }, "LoadQueue:0 "},
		{"zero MSHRs", func(c *Config) { c.Cache = cache.DefaultHierarchyConfig(); c.Cache.MSHRs = 0 }, "MSHRs must be >= 1, got 0"},
		// Set on an otherwise default Mem (Threads zero): kept, not
		// rebuilt from the defaults, so Validate sees them.
		{"negative read entries", func(c *Config) { c.Mem.ReadEntriesPerThread = -4 }, "read entries per thread must be >= 1, got -4"},
		{"negative write entries", func(c *Config) { c.Mem.WriteEntriesPerThread = -1 }, "write entries per thread must be >= 1, got -1"},
		// Hostile shapes: one validator (addrmap.Geometry.Validate) names
		// the dimension, before anything is sized from it.
		{"zero ranks beside a set timing", shape(func(d *dram.Config) { d.Ranks = 0 }), "ranks must be a positive power of two, got 0"},
		{"negative ranks", shape(func(d *dram.Config) { d.Ranks = -1 }), "ranks must be a positive power of two, got -1"},
		{"three ranks", shape(func(d *dram.Config) { d.Ranks = 3 }), "ranks must be a positive power of two, got 3"},
		{"zero banks", shape(func(d *dram.Config) { d.BanksPerRank = 0 }), "banks per rank must be a positive power of two, got 0"},
		{"negative banks", shape(func(d *dram.Config) { d.BanksPerRank = -8 }), "banks per rank must be a positive power of two, got -8"},
		{"six banks", shape(func(d *dram.Config) { d.BanksPerRank = 6 }), "banks per rank must be a positive power of two, got 6"},
		{"zero rows", shape(func(d *dram.Config) { d.RowsPerBank = 0 }), "rows per bank must be a positive power of two, got 0"},
		{"negative rows", shape(func(d *dram.Config) { d.RowsPerBank = -16384 }), "rows per bank must be a positive power of two, got -16384"},
		{"a thousand rows", shape(func(d *dram.Config) { d.RowsPerBank = 1000 }), "rows per bank must be a positive power of two, got 1000"},
		{"zero cols", shape(func(d *dram.Config) { d.ColsPerRow = 0 }), "cols per row must be a positive power of two, got 0"},
		{"negative cols", shape(func(d *dram.Config) { d.ColsPerRow = -128 }), "cols per row must be a positive power of two, got -128"},
		{"a hundred cols", shape(func(d *dram.Config) { d.ColsPerRow = 100 }), "cols per row must be a positive power of two, got 100"},
		{"more lines than addresses", shape(func(d *dram.Config) { d.RowsPerBank = 1 << 54 }), "RowsPerBank:18014398509481984 ColsPerRow:128} needs 64 line-address bits"},
		// Legal shapes and depths that used to be sized as asked: four
		// billion banks or a trillion entries died with a fatal
		// out-of-memory no recover can catch, the rest were accepted.
		{"four billion banks per channel", shape(func(d *dram.Config) { d.Ranks, d.BanksPerRank = 1<<16, 1<<16 }), "4294967296 banks per channel (65536 ranks of 65536), more than the supported maximum of 64"},
		{"a million banks per channel", shape(func(d *dram.Config) { d.Ranks, d.BanksPerRank = 1<<10, 1<<10 }), "1048576 banks per channel"},
		{"twice the bank bound", shape(func(d *dram.Config) { d.Ranks, d.BanksPerRank = 8, 16 }), "128 banks per channel (8 ranks of 16)"},
		{"a trillion read entries", func(c *Config) { c.Mem.ReadEntriesPerThread = 1 << 40 }, "1099511627776 read and 8 write entries per thread, more than the supported maximum of 128"},
		{"write entries past the bound", func(c *Config) { c.Mem.WriteEntriesPerThread = memctrl.MaxEntriesPerThread + 1 }, "16 read and 129 write entries per thread"},
		// A mapper over another shape used to pass New and index out of
		// range on the first Accept.
		{"mapper over another shape", func(c *Config) {
			c.Mem.Mapper, _ = addrmap.NewXOR(addrmap.Geometry{Ranks: 2, BanksPerRank: 16, RowsPerBank: 16384, ColsPerRow: 128})
		}, "mapper xor addresses {Channels:1 Ranks:2 BanksPerRank:16 RowsPerBank:16384 ColsPerRow:128}, the DRAM is {Channels:1 Ranks:1 BanksPerRank:8 RowsPerBank:16384 ColsPerRow:128}"},
		{"one-channel mapper on two channels", func(c *Config) {
			c.Mem.Channels = 2
			c.Mem.Mapper, _ = addrmap.NewLinear(addrmap.Table5())
		}, "mapper linear addresses {Channels:1 "},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) {
			cfg, err := NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			row.mutate(&cfg)
			s, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), row.wantErr) {
				t.Fatalf("error = %v, want one mentioning %q", err, row.wantErr)
			}
			if s != nil {
				t.Error("a refused Config still returned a System")
			}
		})
	}
}

// countingMapper counts the addresses the controller asks it to decode.
type countingMapper struct {
	addrmap.Mapper
	decoded *int
}

func (m countingMapper) Decode(a uint64) addrmap.Coord {
	*m.decoded++
	return m.Mapper.Decode(a)
}

// TestSetMemFieldsReachTheController: buffer partitions and a mapper set
// on a Config.Mem that leaves Threads zero are what the controller runs
// with (they used to be dropped for the Table 5 defaults, silently).
func TestSetMemFieldsReachTheController(t *testing.T) {
	cfg, err := NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mem.Threads != 0 {
		t.Fatal("NamedConfig now spells out Mem.Threads; this test needs a Config that does not")
	}
	xor, err := addrmap.NewXOR(addrmap.Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 16384, ColsPerRow: 128})
	if err != nil {
		t.Fatal(err)
	}
	var decoded int
	cfg.Mem.ReadEntriesPerThread, cfg.Mem.WriteEntriesPerThread = 3, 2
	cfg.Mem.Mapper = countingMapper{xor, &decoded}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := s.Controller()
	for _, want := range []struct {
		isWrite bool
		n       int
	}{{false, 3}, {true, 2}} {
		accepted := 0
		for a := uint64(0); a < 8 && ctrl.Accept(0, a<<20, want.isWrite, 0); a++ {
			accepted++
		}
		if accepted != want.n {
			t.Errorf("write=%v: thread 0's partition took %d requests, want the %d asked for", want.isWrite, accepted, want.n)
		}
	}
	if decoded == 0 {
		t.Error("the controller never asked the configured mapper")
	}
}

// TestObserverSwitchesAreSimConfigFields: the controller's copies of the
// four observer switches are assigned from sim.Config, so what listens
// is what the checkpoint fingerprint records.
func TestObserverSwitchesAreSimConfigFields(t *testing.T) {
	cfg, err := NamedConfig([]string{"art", "vpr"}, "FQ-VFTF", nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mem = memctrl.DefaultConfig(2) // a spelled-out Mem is kept, not rebuilt
	cfg.Mem.Audit, cfg.Mem.Interference, cfg.Mem.Metrics = true, true, metrics.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Controller().Auditor() != nil || s.Controller().InterferenceEnabled() || s.cfg.Mem.Metrics != nil {
		t.Error("an observer set only on Config.Mem is listening")
	}
}

// TestWorkersFieldIsInert holds the deprecated Config.Workers and
// System.Close to doing nothing: a run with Workers set is the run
// without it, to the last checkpoint byte, and no goroutine that this
// module's code started is alive after New and Step or after Close. It
// reads the goroutine dump rather than counting goroutines, so a
// goroutine another test starts or ends meanwhile cannot fail it.
func TestWorkersFieldIsInert(t *testing.T) {
	base := Config{
		Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:         FQVFTF,
		Seed:           23,
		Audit:          true,
		SampleInterval: 1_000,
	}
	base.Mem.Channels = 2
	run := func(workers int) (Result, []byte) {
		cfg := base
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(2_000)
		s.BeginMeasurement()
		s.Step(8_000)
		s.FinishAudit()
		if g := simGoroutines(); g != "" {
			t.Errorf("Workers %d: after New and Step, a goroutine of this module is alive:\n%s", workers, g)
		}
		var ck bytes.Buffer
		if err := s.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if g := simGoroutines(); g != "" {
			t.Errorf("Workers %d: after Close, a goroutine of this module is alive:\n%s", workers, g)
		}
		return s.Results(), ck.Bytes()
	}
	wantRes, wantCk := run(0)
	gotRes, gotCk := run(4)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("Workers 4 changed the Result:\n got: %+v\nwant: %+v", gotRes, wantRes)
	}
	if !bytes.Equal(gotCk, wantCk) {
		t.Errorf("Workers 4 changed the checkpoint (%d vs %d bytes)", len(gotCk), len(wantCk))
	}
}

// simGoroutines returns the stack of every live goroutine that code in
// this module created ("created by repro/..." in the dump), or "".
func simGoroutines() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var ours []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "\ncreated by repro/") {
			ours = append(ours, g)
		}
	}
	return strings.Join(ours, "\n\n")
}

// FuzzNamedConfig holds the builder to its contract on arbitrary
// descriptions: it returns an error or a Config that New accepts and
// that steps — it never panics, and never spends memory on a
// description it is about to refuse.
func FuzzNamedConfig(f *testing.F) {
	for _, row := range namedConfigRows {
		var n0, d0, n1, d1 int
		if len(row.shares) > 0 {
			n0, d0 = row.shares[0].Num, row.shares[0].Den
		}
		if len(row.shares) > 1 {
			n1, d1 = row.shares[1].Num, row.shares[1].Den
		}
		f.Add(row.benches, row.policy, n0, d0, n1, d1, row.channels, row.scale)
	}
	f.Fuzz(func(t *testing.T, benches, policy string, n0, d0, n1, d1, channels, scale int) {
		names := strings.Split(benches, ",")
		var shares []core.Share
		if n0 != 0 || d0 != 0 {
			shares = append(shares, core.Share{Num: n0, Den: d0})
		}
		if n1 != 0 || d1 != 0 {
			shares = append(shares, core.Share{Num: n1, Den: d1})
		}
		// Pad to the core count so the fuzzer spends its time past the
		// count check.
		for len(shares) > 0 && len(shares) < len(names) && len(names) <= 8 {
			shares = append(shares, core.Share{Num: 1, Den: 64})
		}
		cfg, err := NamedConfig(names, policy, shares, channels, scale)
		if err != nil {
			return
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New refused what NamedConfig accepted: %v", err)
		}
		s.Step(300)
	})
}
