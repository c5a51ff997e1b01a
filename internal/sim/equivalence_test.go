package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/trace"
)

// TestEventDrivenEquivalence is the tentpole's oracle: the event-driven
// skip-ahead path must reproduce the strict per-cycle path bit for bit.
// A 2-core art+vpr mix (one bandwidth hog, one latency-sensitive
// thread) runs for over 200k cycles — through multiple refresh windows
// (tREF = 280k with warmup plus window) — under every policy, including
// the interval-based arena lineage whose tick boundaries the fast path
// must never skip, and the Result and the final checkpoint bytes (the
// whole machine: virtual clock, command counts, cache hits and misses,
// policy registers and queues) must match exactly.
func TestEventDrivenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name    string
		factory PolicyFactory
	}{
		{"FCFS", FCFS},
		{"FR-FCFS", FRFCFS},
		{"FR-VFTF", FRVFTF},
		{"FQ-VFTF", FQVFTF},
		{"FR-VSTF", FRVSTF},
		{"BLISS", BLISS},
		{"SLOW-FAIR", SLOWFAIR},
		{"BANK-BW", BANKBW},
	}
	const warmup, window = 50_000, 200_000
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			run := func(strict bool) runState {
				s, err := New(Config{
					Workload: []trace.Profile{art, vpr},
					Policy:   p.factory,
					Seed:     7,
					Strict:   strict,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.Step(warmup)
				s.BeginMeasurement()
				s.Step(window)
				return captureRun(t, s)
			}
			compareRuns(t, "equivalence-"+p.name, run(false), run(true))
		})
	}
}

// TestEquivalenceWithSharesAndRefresh exercises the invalidation paths
// the main sweep does not: a mid-run share reassignment (which rewrites
// policy keys with no command issued) and a multi-channel
// configuration, again demanding bit-identical outcomes.
func TestEquivalenceWithSharesAndRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	run := func(strict bool, channels int) runState {
		cfg := Config{
			Workload: []trace.Profile{art, vpr},
			Policy:   FQVFTF,
			Seed:     11,
			Strict:   strict,
		}
		cfg.Mem.Channels = channels
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(30_000)
		s.SetShare(0, core.Share{Num: 3, Den: 4})
		s.SetShare(1, core.Share{Num: 1, Den: 4})
		s.BeginMeasurement()
		s.Step(120_000)
		return captureRun(t, s)
	}
	for _, channels := range []int{1, 2} {
		compareRuns(t, fmt.Sprintf("equivalence-shares-%dch", channels), run(false, channels), run(true, channels))
	}
}

// TestEquivalenceSetShareInsideRefresh reassigns shares at a cycle where
// a refresh is actually in progress — the virtual clock is paused and
// the fast path's next-event estimate was computed under the old keys —
// and demands the skip-ahead path still match the strict oracle bit for
// bit. tREF is shrunk to 7k cycles so the run crosses dozens of refresh
// windows, and both runs carry the invariant auditor. The SetShare
// cycles themselves are part of the fingerprint: each run hunts for its
// own refresh window, so agreement there proves the histories were
// identical up to the reassignment too.
func TestEquivalenceSetShareInsideRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	run := func(strict bool) (runState, [2]int64) {
		cfg := Config{
			Workload: []trace.Profile{art, vpr},
			Policy:   FQVFTF,
			Seed:     17,
			Strict:   strict,
			Audit:    true,
		}
		cfg.Mem.DRAM = dram.DefaultConfig()
		cfg.Mem.DRAM.Timing.TREF = 7_000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stepIntoRefresh := func() int64 {
			for i := 0; i < 30_000; i++ {
				s.Step(1)
				if s.Controller().Channel().InRefresh(s.Cycle()) {
					return s.Cycle()
				}
			}
			t.Fatal("no refresh window reached")
			return 0
		}
		var shareAt [2]int64
		s.Step(10_000)
		shareAt[0] = stepIntoRefresh()
		s.SetShare(0, core.Share{Num: 3, Den: 4})
		s.SetShare(1, core.Share{Num: 1, Den: 4})
		s.BeginMeasurement()
		s.Step(40_000)
		shareAt[1] = stepIntoRefresh()
		s.SetShare(0, core.Share{Num: 1, Den: 4})
		s.SetShare(1, core.Share{Num: 3, Den: 4})
		s.Step(40_000)
		s.FinishAudit()
		if n := s.Controller().CommandCount(dram.KindRefresh); n < 10 {
			t.Errorf("run crossed only %d refresh windows, want many", n)
		}
		return captureRun(t, s), shareAt
	}
	fast, fastAt := run(false)
	strict, strictAt := run(true)
	if fastAt != strictAt {
		t.Errorf("SetShare cycles diverge: fast %v strict %v", fastAt, strictAt)
	}
	compareRuns(t, "equivalence-setshare-refresh", fast, strict)
}

// TestEquivalenceMultiChannelBankWake targets the event-driven path's
// multi-channel approximation: bank wake times are tracked per flat
// bank, but the virtual clock only pauses for channel 0's refresh, so
// wake estimates on the other channels are conservative lower bounds.
// At 2 and 4 channels, through many short refresh windows and a mid-run
// share reassignment, the skip-ahead path must still reproduce the
// strict oracle exactly — the approximation may cost wake-ups, never
// correctness. All six arena policies run, so the quiet-bound wakes and
// the per-thread pick clears are also held to the oracle across the
// interval policies' Tick invalidations (for which the share
// reassignment is a no-op). Both runs carry the invariant auditor.
func TestEquivalenceMultiChannelBankWake(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name    string
		factory PolicyFactory
	}{
		{"FR-FCFS", FRFCFS},
		{"FR-VFTF", FRVFTF},
		{"FQ-VFTF", FQVFTF},
		{"BLISS", BLISS},
		{"SLOW-FAIR", SLOWFAIR},
		{"BANK-BW", BANKBW},
	} {
		for _, channels := range []int{2, 4} {
			p, channels := p, channels
			t.Run(fmt.Sprintf("%s/channels=%d", p.name, channels), func(t *testing.T) {
				t.Parallel()
				run := func(strict bool) runState {
					cfg := Config{
						Workload: []trace.Profile{art, vpr},
						Policy:   p.factory,
						Seed:     19,
						Strict:   strict,
						Audit:    true,
					}
					cfg.Mem.Channels = channels
					cfg.Mem.DRAM = dram.DefaultConfig()
					cfg.Mem.DRAM.Timing.TREF = 7_000
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.Step(30_000)
					s.SetShare(0, core.Share{Num: 3, Den: 4})
					s.SetShare(1, core.Share{Num: 1, Den: 4})
					s.BeginMeasurement()
					s.Step(100_000)
					s.FinishAudit()
					if s.Controller().CommandCount(dram.KindRefresh) == 0 {
						t.Error("run crossed no refresh window")
					}
					return captureRun(t, s)
				}
				compareRuns(t, "equivalence-"+sanitize(t.Name()), run(false), run(true))
			})
		}
	}
}
