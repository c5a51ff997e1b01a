package memctrl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

// twoChannelConfig uses the default XOR mapper over a two-channel
// geometry (channels are line-interleaved).
func twoChannelConfig(threads int) Config {
	cfg := DefaultConfig(threads)
	cfg.Channels = 2
	cfg.DisableRefresh = true
	return cfg
}

func TestMultiChannelDecodeRouting(t *testing.T) {
	c, err := New(twoChannelConfig(1), core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	if c.Channels() != 2 {
		t.Fatalf("channels = %d", c.Channels())
	}
	// Line-interleaving: even line addresses on channel 0, odd on 1.
	done := make(map[uint64]bool)
	c.OnReadDone = func(r *core.Request, now int64) {
		done[r.Addr] = true
		if int(r.Addr&1) != r.Channel {
			t.Errorf("addr %d routed to channel %d", r.Addr, r.Channel)
		}
	}
	c.Accept(0, 0, false, 0)
	c.Accept(0, 1, false, 0)
	for now := int64(0); now < 200 && len(done) < 2; now++ {
		c.Tick(now)
	}
	if len(done) != 2 {
		t.Fatal("reads did not complete")
	}
}

// TestMultiChannelParallelism: two channels must service two
// independent request streams concurrently, roughly doubling throughput
// over one channel.
func TestMultiChannelParallelism(t *testing.T) {
	run := func(channels int) int64 {
		cfg := DefaultConfig(1)
		cfg.Channels = channels
		cfg.DisableRefresh = true
		cfg.ReadEntriesPerThread = 32
		c, err := New(cfg, core.NewFRFCFS())
		if err != nil {
			t.Fatal(err)
		}
		c.OnReadDone = func(r *core.Request, now int64) {}
		addr := uint64(0)
		for now := int64(0); now < 20_000; now++ {
			for c.Stats(0).ReadsAccepted-c.Stats(0).ReadsDone < 24 {
				if !c.Accept(0, addr, false, now) {
					break
				}
				addr += 17 // stride across channels, banks, rows
			}
			c.Tick(now)
		}
		return c.Stats(0).ReadsDone
	}
	one := run(1)
	two := run(2)
	if float64(two) < 1.5*float64(one) {
		t.Errorf("2-channel throughput %d not well above 1-channel %d", two, one)
	}
}

// TestMultiChannelVTMSIsolation: the FQ policy must keep independent
// channel registers; saturating channel 0 must not delay a request on
// channel 1 via the VTMS bookkeeping.
func TestMultiChannelVTMS(t *testing.T) {
	shares := []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}}
	cfg := twoChannelConfig(2)
	p := core.NewFQVFTF(shares, cfg.TotalBanks(), dram.DDR2800())
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.OnReadDone = func(r *core.Request, now int64) { done++ }
	// Thread 0 hammers channel 0 (even addresses), thread 1 sends one
	// request to channel 1.
	addr := uint64(0)
	sentOdd := false
	var oddDone int64 = -1
	c.OnReadDone = func(r *core.Request, now int64) {
		done++
		if r.Thread == 1 {
			oddDone = now
		}
	}
	for now := int64(0); now < 3000; now++ {
		for c.Stats(0).ReadsAccepted-c.Stats(0).ReadsDone < 16 {
			if !c.Accept(0, addr, false, now) {
				break
			}
			addr += 2
		}
		if now == 100 && !sentOdd {
			c.Accept(1, 1, false, now)
			sentOdd = true
		}
		c.Tick(now)
	}
	if oddDone < 0 {
		t.Fatal("channel-1 request starved")
	}
	if wait := oddDone - 100; wait > 60 {
		t.Errorf("channel-1 request waited %d cycles behind channel-0 traffic", wait)
	}
}

func TestSharedBuffersPooling(t *testing.T) {
	cfg := linearConfig(t, 2)
	cfg.SharedBuffers = true
	c, err := New(cfg, core.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	// With pooling, one thread may consume the whole 2x16 read pool...
	for i := 0; i < 32; i++ {
		if !c.Accept(0, addr(i%8, i, 0), false, 0) {
			t.Fatalf("pooled accept %d failed", i)
		}
	}
	if c.Accept(0, addr(0, 99, 0), false, 0) {
		t.Fatal("accept beyond pool capacity")
	}
	// ...and the other thread is now locked out (the isolation loss the
	// paper's static partitioning exists to prevent).
	if c.Accept(1, addr(0, 500, 0), false, 0) {
		t.Fatal("thread 1 accepted with pool exhausted by thread 0")
	}
}

func TestChannelsValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Channels = 3
	if _, err := New(cfg, core.NewFRFCFS()); err == nil {
		t.Error("accepted non-power-of-two channel count")
	}
}
