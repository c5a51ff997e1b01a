package cpu

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// fixedGen builds a generator-compatible profile that emits only compute
// instructions (for pure-pipeline tests) or specific patterns.
func computeProfile() trace.Profile {
	return trace.Profile{
		Name: "compute", MemFrac: 0, StoreFrac: 0,
		WorkingSetKB: 64, Streams: 1, FpFrac: 0, DepFrac: 0,
	}
}

func newCore(t *testing.T, p trace.Profile) *Core {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, DefaultConfig(), gen, hier)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cfg.ROB = 0
	if err := cfg.Validate(); err == nil {
		t.Error("accepted 0 ROB")
	}
	hier, _ := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	gen, _ := trace.NewGenerator(computeProfile(), 0, 1)
	if _, err := New(0, cfg, gen, hier); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestComputeIPCBoundedByDispatchWidth(t *testing.T) {
	c := newCore(t, computeProfile())
	for now := int64(0); now < 10000; now++ {
		c.Tick(now)
	}
	ipc := float64(c.Retired) / 10000
	if ipc > 4.0 {
		t.Fatalf("IPC %v exceeds dispatch width 4", ipc)
	}
	if ipc < 2.0 {
		t.Fatalf("IPC %v too low for a dependence-free compute stream", ipc)
	}
}

func TestDependenceChainsLowerIPC(t *testing.T) {
	free := computeProfile()
	chained := computeProfile()
	chained.Name = "chained"
	chained.DepFrac = 1.0
	chained.FpFrac = 1.0 // 4-cycle ops, fully serialized
	cf, cc := newCore(t, free), newCore(t, chained)
	for now := int64(0); now < 10000; now++ {
		cf.Tick(now)
		cc.Tick(now)
	}
	if cc.Retired*2 >= cf.Retired {
		t.Fatalf("chained IPC (%d) not well below free IPC (%d)", cc.Retired, cf.Retired)
	}
	// A fully serialized 4-cycle chain retires about one per 4 cycles.
	got := float64(cc.Retired) / 10000
	if got > 0.35 {
		t.Errorf("serialized FP chain IPC = %v, want about 0.25", got)
	}
}

func TestCacheResidentLoadsRetire(t *testing.T) {
	p := trace.Profile{
		Name: "smallws", MemFrac: 0.3, StoreFrac: 0.2,
		SeqFrac: 0.5, Streams: 2, WorkingSetKB: 64, // fits in the 512KB L2
		FpFrac: 0, DepFrac: 0.1,
	}
	c := newCore(t, p)
	// Without a memory system, all misses would deadlock; a 64KB
	// working set stays resident in the L2 after warmup fills.
	pendingFills := func() {
		h := c.Hierarchy()
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				break
			}
			h.FetchAccepted()
			h.Fill(tok)
			c.OnFill(tok, 0)
		}
	}
	for now := int64(0); now < 20000; now++ {
		c.Tick(now)
		pendingFills()
	}
	if c.Retired < 20000 {
		t.Fatalf("retired only %d instructions", c.Retired)
	}
	if c.LoadsRetired == 0 || c.StoresRetired == 0 {
		t.Fatalf("loads/stores = %d/%d", c.LoadsRetired, c.StoresRetired)
	}
}

func TestLoadMissBlocksRetirement(t *testing.T) {
	p := trace.Profile{
		Name: "missy", MemFrac: 1.0, StoreFrac: 0,
		SeqFrac: 1.0, Streams: 1, WorkingSetKB: 65536,
		FpFrac: 0, DepFrac: 0,
	}
	c := newCore(t, p)
	// Never deliver fills: the core must stall once the ROB fills with
	// pending loads (bounded by MSHRs for distinct lines).
	for now := int64(0); now < 5000; now++ {
		c.Tick(now)
	}
	if c.Retired > int64(DefaultConfig().ROB) {
		t.Fatalf("retired %d instructions with no memory responses", c.Retired)
	}
	if c.Drained() {
		t.Fatal("core claims drained with outstanding misses")
	}
}

func TestOnFillWakesLoads(t *testing.T) {
	p := trace.Profile{
		Name: "missy2", MemFrac: 1.0, StoreFrac: 0,
		SeqFrac: 1.0, Streams: 1, WorkingSetKB: 65536,
		FpFrac: 0, DepFrac: 0,
	}
	c := newCore(t, p)
	served := 0
	for now := int64(0); now < 20000; now++ {
		c.Tick(now)
		h := c.Hierarchy()
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				break
			}
			h.FetchAccepted()
			h.Fill(tok)
			c.OnFill(tok, now)
			served++
		}
	}
	if served == 0 {
		t.Fatal("no misses generated")
	}
	if c.Retired < 10000 {
		t.Fatalf("retired %d with immediate fills; pipeline is stuck", c.Retired)
	}
}

func TestPointerChaseSerializesMisses(t *testing.T) {
	chase := trace.Profile{
		Name: "chaser", MemFrac: 0.5, StoreFrac: 0,
		ChaseFrac: 1.0, Streams: 1, WorkingSetKB: 65536,
		FpFrac: 0, DepFrac: 0,
	}
	streamy := chase
	streamy.Name = "streamy"
	streamy.ChaseFrac = 0
	streamy.SeqFrac = 1.0

	run := func(p trace.Profile) (retired int64, maxOut int) {
		c := newCore(t, p)
		const lat = 50
		type fill struct {
			tok int
			at  int64
		}
		var fills []fill
		for now := int64(0); now < 30000; now++ {
			c.Tick(now)
			h := c.Hierarchy()
			for {
				_, tok, ok := h.NextFetch()
				if !ok {
					break
				}
				h.FetchAccepted()
				fills = append(fills, fill{tok, now + lat})
			}
			for len(fills) > 0 && fills[0].at <= now {
				h.Fill(fills[0].tok)
				c.OnFill(fills[0].tok, now)
				fills = fills[1:]
			}
			if o := c.Hierarchy().OutstandingMisses(); o > maxOut {
				maxOut = o
			}
		}
		return c.Retired, maxOut
	}
	rc, mc := run(chase)
	rs, ms := run(streamy)
	if mc > 4 {
		t.Errorf("pointer chase reached MLP %d, want near 1", mc)
	}
	if ms < 8 {
		t.Errorf("streaming reached MLP %d, want near MSHR count", ms)
	}
	if rc*2 > rs {
		t.Errorf("chase retired %d vs stream %d; serialization too weak", rc, rs)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	p := trace.Profile{
		Name: "storer", MemFrac: 1.0, StoreFrac: 1.0,
		SeqFrac: 1.0, Streams: 1, WorkingSetKB: 65536,
		FpFrac: 0, DepFrac: 0,
	}
	c := newCore(t, p)
	// No fills: store misses allocate MSHRs; once MSHRs and the store
	// buffer fill, retirement stalls.
	for now := int64(0); now < 5000; now++ {
		c.Tick(now)
	}
	cfg := DefaultConfig()
	bound := int64(cfg.ROB + cfg.StoreBuffer + 64)
	if c.Retired > bound {
		t.Fatalf("retired %d stores without memory; want <= %d", c.Retired, bound)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		c := newCore(t, computeProfile())
		for now := int64(0); now < 5000; now++ {
			c.Tick(now)
		}
		return c.Retired
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestIFetchStall: a code working set far beyond the cache hierarchy
// forces instruction-fetch misses to memory; dispatch must stall on the
// fetch and resume on the fill.
func TestIFetchStall(t *testing.T) {
	p := trace.Profile{
		Name: "bigcode", MemFrac: 0, WorkingSetKB: 64,
		Streams: 1, CodeKB: 2048, // 2MB of code >> 512KB L2
	}
	c := newCore(t, p)
	// Phase 1: never serve fills; dispatch must wedge on an I-miss.
	for now := int64(0); now < 3000; now++ {
		c.Tick(now)
	}
	stalled := c.Retired
	if stalled > 2000 {
		t.Fatalf("retired %d with unserved I-fetch misses", stalled)
	}
	// Phase 2: start serving fills; the core must make progress again.
	for now := int64(3000); now < 9000; now++ {
		c.Tick(now)
		h := c.Hierarchy()
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				break
			}
			h.FetchAccepted()
			h.Fill(tok)
			c.OnFill(tok, now)
		}
	}
	if c.Retired <= stalled+1000 {
		t.Fatalf("core did not resume after I-fetch fills: %d -> %d", stalled, c.Retired)
	}
}

// TestLoadDependenceOnStore: an instruction depending on a store (not a
// load) must still resolve.
func TestMixedDependences(t *testing.T) {
	p := trace.Profile{
		Name: "mixed", MemFrac: 0.4, StoreFrac: 0.5,
		SeqFrac: 0.3, ChaseFrac: 0.3, Streams: 1,
		WorkingSetKB: 64, DepFrac: 0.6,
	}
	c := newCore(t, p)
	for now := int64(0); now < 20000; now++ {
		c.Tick(now)
		h := c.Hierarchy()
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				break
			}
			h.FetchAccepted()
			h.Fill(tok)
			c.OnFill(tok, now)
		}
	}
	if c.Retired < 15000 {
		t.Fatalf("mixed-dependence stream wedged: retired %d", c.Retired)
	}
}

// refIssueLoads is issueLoads as it was before the parked count: every
// queued load is visited every cycle, and the count is never touched.
func refIssueLoads(c *Core, now int64) {
	issued := 0
	for i := 0; i < len(c.issueQ) && issued < c.cfg.LoadsPerCycle; i++ {
		if c.issueNACK[i] || c.issueRdy[i] > now || c.inFlight >= c.cfg.LoadQueue {
			continue
		}
		idx := c.issueQ[i]
		e := &c.rob[idx]
		res := c.hier.Access(cache.ClassLoad, e.addr)
		if res.NACK {
			c.issueNACK[i] = true
			continue
		}
		issued++
		e.inIssueQ = false
		c.inFlight++
		c.issueQ = append(c.issueQ[:i], c.issueQ[i+1:]...)
		c.issueRdy = append(c.issueRdy[:i], c.issueRdy[i+1:]...)
		c.issueNACK = append(c.issueNACK[:i], c.issueNACK[i+1:]...)
		i--
		if res.Hit {
			c.resolve(idx, now+int64(res.Latency))
			c.inFlight--
			continue
		}
		c.addTokenWaiter(res.Token, idx)
	}
}

// TestParkedIssueQueueEarlyOut: once the MSHRs are full every queued
// load is parked until a fill, and issueLoads and NextWork return
// without walking the queue. A core driven through no-fill, slow-fill
// and no-fill phases must match, cycle for cycle, a reference core that
// scans every entry every cycle (its parked count stays zero, which
// also keeps NextWork's scan and OnFill's clearing unconditional).
func TestParkedIssueQueueEarlyOut(t *testing.T) {
	p := trace.Profile{
		Name: "parky", MemFrac: 0.6, StoreFrac: 0.2,
		SeqFrac: 0.5, Streams: 4, WorkingSetKB: 65536,
		FpFrac: 0.2, DepFrac: 0.3,
	}
	c, ref := newCore(t, p), newCore(t, p)
	type fill struct {
		tok int
		at  int64
	}
	var fills, refFills []fill
	// collect queues the hierarchy's new fetches as fills due lat cycles on.
	collect := func(h *cache.Hierarchy, q []fill, at int64) []fill {
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				return q
			}
			h.FetchAccepted()
			q = append(q, fill{tok, at})
		}
	}
	sawParked, sawForever := false, false
	for now := int64(0); now < 12_000; now++ {
		c.Tick(now)

		stalled, r0 := ref.count > 0, ref.Retired
		ref.retire(now)
		if stalled && ref.Retired == r0 {
			ref.StallCycles++
		}
		ref.drainStores()
		refIssueLoads(ref, now)
		ref.dispatch(now)

		fills = collect(c.hier, fills, now+50)
		refFills = collect(ref.hier, refFills, now+50)
		if now >= 4_000 && now < 8_000 { // memory answers in the middle phase only
			for len(fills) > 0 && fills[0].at <= now {
				c.hier.Fill(fills[0].tok)
				c.OnFill(fills[0].tok, now)
				fills = fills[1:]
			}
			for len(refFills) > 0 && refFills[0].at <= now {
				ref.hier.Fill(refFills[0].tok)
				for i := range ref.issueNACK {
					ref.issueNACK[i] = false
				}
				ref.OnFill(refFills[0].tok, now)
				refFills = refFills[1:]
			}
		}
		if ref.parked != 0 {
			t.Fatalf("cycle %d: the reference core counted %d parked entries", now, ref.parked)
		}
		got, want := c.NextWork(now+1), ref.NextWork(now+1)
		if c.Retired != ref.Retired || c.StallCycles != ref.StallCycles || got != want ||
			len(c.issueQ) != len(ref.issueQ) || c.inFlight != ref.inFlight {
			t.Fatalf("cycle %d: retired %d/%d, stall cycles %d/%d, next work %d/%d, queued %d/%d, in flight %d/%d (core/reference)",
				now, c.Retired, ref.Retired, c.StallCycles, ref.StallCycles, got, want,
				len(c.issueQ), len(ref.issueQ), c.inFlight, ref.inFlight)
		}
		sawParked = sawParked || c.parked > 0 && c.parked == len(c.issueQ)
		sawForever = sawForever || got == Forever
	}
	if !sawParked || !sawForever {
		t.Fatalf("workload never parked the whole issue queue (%v) or blocked on a fill (%v)", sawParked, sawForever)
	}
	if c.Retired == 0 || c.StallCycles == 0 {
		t.Fatalf("degenerate run: retired %d, stall cycles %d", c.Retired, c.StallCycles)
	}

	// The count is not in the checkpoint: a restored core recounts it.
	var buf bytes.Buffer
	enc := snapshot.NewEncoder(&buf)
	if err := c.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := newCore(t, p)
	if err := back.State(dec); err != nil {
		t.Fatal(err)
	}
	if c.parked == 0 || back.parked != c.parked {
		t.Fatalf("restored core counts %d parked entries, want %d (> 0)", back.parked, c.parked)
	}
}
