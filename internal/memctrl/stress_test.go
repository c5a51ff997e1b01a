package memctrl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

// stressShares are the three threads' shares in the stress traffic.
var stressShares = []core.Share{{Num: 1, Den: 4}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}

// stressPolicies constructs every policy for three threads over
// totalBanks flat banks.
func stressPolicies(totalBanks int) map[string]core.Policy {
	tt := dram.DDR2800()
	return map[string]core.Policy{
		"FCFS":            core.NewFCFS(),
		"FR-FCFS":         core.NewFRFCFS(),
		"FR-VFTF":         core.NewFRVFTF(stressShares, totalBanks, tt),
		"FQ-VFTF":         core.NewFQVFTF(stressShares, totalBanks, tt),
		"FR-VSTF":         core.NewFRVSTF(stressShares, totalBanks, tt),
		"FR-VFTF-arrival": core.NewFRVFTFArrival(stressShares, totalBanks, tt),
		"BLISS":           core.NewBLISS(3),
		"SLOW-FAIR":       core.NewSlowFair(3, tt),
		"BANK-BW":         core.NewBankBW(3, totalBanks),
	}
}

// TestStressInvariants drives the controller with random traffic under
// every policy and checks conservation invariants after draining:
//
//   - no request is lost: accepted == done for reads and writes,
//   - buffer occupancy returns to zero,
//   - every DDR2 timing rule held (the dram model panics otherwise),
//   - data-bus accounting equals BL/2 per CAS.
func TestStressInvariants(t *testing.T) {
	tt := dram.DDR2800()
	for _, channels := range []int{1, 2} {
		cfg := DefaultConfig(3)
		cfg.Channels = channels
		cfg.DisableRefresh = false
		cfg.DRAM.Timing.TREF = 3000 // exercise refresh frequently
		for name, policy := range stressPolicies(cfg.TotalBanks()) {
			c, err := New(cfg, policy)
			if err != nil {
				t.Fatal(err)
			}
			c.OnReadDone = func(r *core.Request, now int64) {}

			seed := uint64(42)
			next := func() uint64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return seed
			}
			for now := int64(0); now < 30_000; now++ {
				if x := next(); x%3 != 0 {
					th := int(x >> 20 % 3)
					addr := (x >> 8) % 500_000
					c.Accept(th, addr, x%5 == 0, now)
				}
				c.Tick(now)
			}
			// Drain: run well past the last pending request so in-flight
			// data bursts deliver.
			end := int64(30_000)
			quiet := 0
			for now := end; now < end+200_000; now++ {
				c.Tick(now)
				if c.PendingRequests() == 0 {
					quiet++
					if quiet > 2000 {
						break
					}
				} else {
					quiet = 0
				}
			}
			var reads, readsDone, writes, writesDone, cas int64
			for i := 0; i < 3; i++ {
				st := c.Stats(i)
				reads += st.ReadsAccepted
				readsDone += st.ReadsDone
				writes += st.WritesAccepted
				writesDone += st.WritesDone
			}
			cas = c.CommandCount(dram.KindRead) + c.CommandCount(dram.KindWrite)
			if c.PendingRequests() != 0 {
				t.Errorf("%s/%dch: %d requests stuck", name, channels, c.PendingRequests())
				continue
			}
			if reads != readsDone {
				t.Errorf("%s/%dch: %d reads accepted, %d done", name, channels, reads, readsDone)
			}
			if writes != writesDone {
				t.Errorf("%s/%dch: %d writes accepted, %d done", name, channels, writes, writesDone)
			}
			if reads == 0 || writes == 0 {
				t.Errorf("%s/%dch: degenerate workload (%d reads, %d writes)", name, channels, reads, writes)
			}
			if got, want := c.DataBusBusyCycles(), cas*int64(tt.BL2); got != want {
				t.Errorf("%s/%dch: bus busy %d, want %d (= CAS x BL/2)", name, channels, got, want)
			}
			if c.CommandCount(dram.KindRefresh) == 0 {
				t.Errorf("%s/%dch: refresh never ran", name, channels)
			}
		}
	}
}

// TestStressLatencyHistogramConsistency: the histogram must account for
// every completed read.
func TestStressLatencyHistogram(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DisableRefresh = true
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	c.OnReadDone = func(r *core.Request, now int64) {}
	seed := uint64(7)
	for now := int64(0); now < 20_000; now++ {
		seed = seed*2862933555777941757 + 3037000493
		if seed%4 == 0 {
			c.Accept(0, (seed>>10)%100_000, false, now)
		}
		c.Tick(now)
	}
	st := c.Stats(0)
	if st.LatHist.N != st.ReadsDone {
		t.Fatalf("histogram has %d samples, %d reads done", st.LatHist.N, st.ReadsDone)
	}
	p50 := st.ReadLatencyQuantile(0.50)
	p95 := st.ReadLatencyQuantile(0.95)
	if p50 <= 0 || p95 < p50 {
		t.Fatalf("quantiles p50=%v p95=%v", p50, p95)
	}
}
