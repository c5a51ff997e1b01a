package cpu

import (
	"bytes"
	"fmt"
	"strings"
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
	gen, err := trace.NewGenerator(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return newCoreOn(t, gen)
}

// newCoreOn builds the default core over any instruction source.
func newCoreOn(t *testing.T, src trace.Source) *Core {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, DefaultConfig(), src, hier)
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

// refIssueLoads is issueLoads with no parking at all: every ready queued
// load probes the hierarchy every cycle, refused or not.
func refIssueLoads(c *Core, now int64) {
	issued := 0
	for i := 0; i < len(c.issueQ) && issued < c.cfg.LoadsPerCycle; i++ {
		if c.issueRdy[i] > now || c.inFlight >= c.cfg.LoadQueue {
			continue
		}
		idx := c.issueQ[i]
		e := &c.rob[idx]
		res := c.hier.Access(cache.ClassLoad, e.addr)
		if res.NACK {
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

// refTick is Tick for the deliberately naive core: nothing stays parked,
// so the refused store and ifetch are retried every cycle as well.
func refTick(c *Core, now int64) {
	c.storeNACK, c.ifetchNACK = false, false
	stalled, r0 := c.count > 0, c.Retired
	c.retire(now)
	if stalled && c.Retired == r0 {
		c.StallCycles++
	}
	c.drainStores()
	refIssueLoads(c, now)
	c.dispatch(now)
}

// collidingSource is an instruction stream built to break the
// parked-load invariant wherever an allocation site forgets unparkLine:
// nearly every memory access misses to memory (fresh lines), a third of
// them reuse one of the last few data lines (same-line loads behind a
// parked one) or one of the last few stores' lines (far enough back that
// the store has retired and is itself waiting for an MSHR while the load
// is parked), and the instruction fetches walk those same recent data
// lines, so an ifetch allocates the MSHR a parked load has been waiting
// to merge into.
type collidingSource struct {
	rng            uint64
	fresh          uint64
	recent, stores [8]uint64
	n, nStores     int
}

func (s *collidingSource) rand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func (s *collidingSource) Name() string { return "colliding" }

func (s *collidingSource) CodeLine() (uint64, bool) {
	if s.rand()%4 == 0 {
		return s.recent[s.rand()%uint64(len(s.recent))], true
	}
	return 1 << 40, true // resident after its first fill
}

func (s *collidingSource) Next(ins *trace.Instr) {
	*ins = trace.Instr{Kind: trace.KindInt, Lat: 1}
	r := s.rand()
	if r%8 >= 5 {
		if r%8 == 7 { // a dependent multi-cycle op: completion times in the future
			*ins = trace.Instr{Kind: trace.KindFp, Lat: 4, Dep: 1}
		}
		return
	}
	ins.Kind = trace.KindLoad
	if r%8 == 4 {
		ins.Kind = trace.KindStore
	}
	if s.rand()%3 == 0 {
		from := &s.recent
		if s.rand()%2 == 0 {
			from = &s.stores
		}
		ins.Addr = from[s.rand()%uint64(len(from))]
		return
	}
	s.fresh += 1 + s.rand()%977 // scattered: no two fresh lines alike
	ins.Addr = 1<<20 + s.fresh
	s.recent[s.n%len(s.recent)] = ins.Addr
	s.n++
	if ins.Kind == trace.KindStore {
		s.stores[s.nStores%len(s.stores)] = ins.Addr
		s.nStores++
	}
}

// TestParkedIssueQueueEarlyOut drives the real core beside the naive
// one (refTick) on MSHR-starved traffic, through
// alternating slow-fill and no-fill phases with the fills delivered in
// same-cycle batches, and
// holds them equal on every cycle. Parked loads stay parked across
// fills, so the run must show each way a parked load's line becomes
// reachable — a load, a store and an ifetch allocating it — and the
// load merging on the cycle the naive core's does. NextWork is held to
// its contract, not to equality: while it claims the core dormant, the
// naive core's tick must change nothing but StallCycles, up to the
// claimed cycle or the next fill.
func TestParkedIssueQueueEarlyOut(t *testing.T) {
	synthetic := trace.Profile{
		Name: "parky", MemFrac: 0.6, StoreFrac: 0.2,
		SeqFrac: 0.5, Streams: 4, WorkingSetKB: 65536,
		FpFrac: 0.2, DepFrac: 0.3,
	}
	for _, tc := range []struct {
		name   string
		source func() trace.Source
		// collides: the stream is built to hit every un-park site.
		collides bool
	}{
		{"synthetic", func() trace.Source {
			gen, err := trace.NewGenerator(synthetic, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			return gen
		}, false},
		{"colliding", func() trace.Source { return &collidingSource{rng: 0x9e3779b97f4a7c15} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBesideNaiveCore(t, newCoreOn(t, tc.source()), newCoreOn(t, tc.source()), tc.collides)
		})
	}
}

// progress is what a tick can change besides StallCycles.
type progress struct {
	retired, l2Miss, l1dHits, l1dMisses, l2Hits, l2Misses, l1iHits, l1iMisses int64
	queued, inFlight, stores, outstanding, sinceIFetch, tokenStall            int
	count                                                                     int32
}

func progressOf(c *Core) progress {
	h := c.hier
	return progress{
		retired: c.Retired, l2Miss: h.L2MissCount,
		l1dHits: h.L1D().Hits, l1dMisses: h.L1D().Misses,
		l2Hits: h.L2().Hits, l2Misses: h.L2().Misses,
		l1iHits: h.L1I().Hits, l1iMisses: h.L1I().Misses,
		queued: len(c.issueQ), inFlight: c.inFlight, stores: len(c.storeBuf),
		outstanding: h.OutstandingMisses(), sinceIFetch: c.sinceIFetch,
		tokenStall: c.tokenStall, count: c.count,
	}
}

func runBesideNaiveCore(t *testing.T, c, ref *Core, collides bool) {
	type fill struct {
		tok int
		at  int64
	}
	var fills, refFills []fill
	// collect queues the hierarchy's new fetches as fills due about lat
	// cycles on, rounded up to a multiple of 16 so that several land in
	// one cycle.
	collect := func(h *cache.Hierarchy, q []fill, now int64) []fill {
		for {
			_, tok, ok := h.NextFetch()
			if !ok {
				return q
			}
			h.FetchAccepted()
			q = append(q, fill{tok, (now + 50 + 15) &^ 15})
		}
	}
	deliver := func(c *Core, q []fill, now int64) ([]fill, int) {
		n := 0
		for len(q) > 0 && q[0].at <= now {
			c.hier.Fill(q[0].tok)
			c.OnFill(q[0].tok, now)
			q = q[1:]
			n++
		}
		return q, n
	}
	var saw struct {
		allParked, forever, laterWake, tripleFill                bool
		sameLineParked, loadUnparks, storeUnparks, ifetchUnparks bool
	}
	dormantUntil := int64(0) // the real core's standing NextWork claim
	parkedLines := map[uint64]int{}
	for now := int64(0); now < 24_000; now++ {
		// Memory answers, falls silent until the core wedges, and repeats.
		if now%12_000 < 8_000 {
			var n int
			fills, n = deliver(c, fills, now)
			refFills, _ = deliver(ref, refFills, now)
			if n > 0 {
				dormantUntil = 0 // a claim stands until the next fill
			}
			saw.tripleFill = saw.tripleFill || n >= 3
		}

		// Which lines have parked loads, and what could allocate them.
		clear(parkedLines)
		for i, nack := range c.issueNACK {
			if nack {
				parkedLines[c.rob[c.issueQ[i]].addr]++
			}
		}
		for _, n := range parkedLines {
			saw.sameLineParked = saw.sameLineParked || n > 1
		}
		storeHead, storeParked := uint64(0), false
		if len(c.storeBuf) > 0 {
			storeHead = c.storeBuf[0]
			storeParked = parkedLines[storeHead] > 0
		}
		stall0, parked0, queued0 := c.tokenStall, c.parked, len(c.issueQ)

		before := progressOf(ref)
		c.Tick(now)
		refTick(ref, now)
		if now < dormantUntil && progressOf(ref) != before {
			t.Fatalf("cycle %d: NextWork claimed the core dormant until %d, but the naive core progressed: %+v -> %+v",
				now, dormantUntil, before, progressOf(ref))
		}

		if _, out := c.hier.TokenFor(storeHead); storeParked && out {
			saw.storeUnparks = true
		}
		if c.tokenStall >= 0 && c.tokenStall != stall0 && parkedLines[c.hier.TokenAddr(c.tokenStall)] > 0 {
			saw.ifetchUnparks = true
		}
		// More parked entries left the queue than loads can issue per
		// cycle from a probe of their own: an allocation un-parked the rest.
		if issued := queued0 - len(c.issueQ); issued > 0 && parked0-c.parked > issued {
			saw.loadUnparks = true
		}

		fills = collect(c.hier, fills, now)
		refFills = collect(ref.hier, refFills, now)

		got, want := progressOf(c), progressOf(ref)
		if got != want || c.StallCycles != ref.StallCycles {
			t.Fatalf("cycle %d: core and naive core diverge (stall cycles %d/%d):\n core  %+v\n naive %+v",
				now, c.StallCycles, ref.StallCycles, got, want)
		}
		if len(fills) != len(refFills) {
			t.Fatalf("cycle %d: %d/%d MSHR tokens outstanding (core/naive)", now, len(fills), len(refFills))
		}
		for i := range fills {
			if fills[i] != refFills[i] || c.hier.TokenAddr(fills[i].tok) != ref.hier.TokenAddr(fills[i].tok) {
				t.Fatalf("cycle %d: outstanding MSHR %d differs: token %d line %#x due %d, naive token %d line %#x due %d", now, i,
					fills[i].tok, c.hier.TokenAddr(fills[i].tok), fills[i].at,
					refFills[i].tok, ref.hier.TokenAddr(refFills[i].tok), refFills[i].at)
			}
		}
		if ref.parked != 0 {
			t.Fatalf("cycle %d: the naive core parked %d entries", now, ref.parked)
		}

		if w := c.NextWork(now + 1); w > now+1 {
			dormantUntil = max(dormantUntil, w)
			saw.forever = saw.forever || w == Forever
			saw.laterWake = saw.laterWake || w != Forever
		}
		saw.allParked = saw.allParked || c.parked > 0 && c.parked == len(c.issueQ)
	}
	if !saw.allParked || !saw.forever || !saw.laterWake || !saw.tripleFill {
		t.Fatalf("traffic never got there: %+v", saw)
	}
	if collides && !(saw.sameLineParked && saw.loadUnparks && saw.storeUnparks && saw.ifetchUnparks) {
		t.Fatalf("colliding traffic missed an un-park site: %+v", saw)
	}
	if c.Retired == 0 || c.StallCycles == 0 || c.hier.L2MissCount == 0 {
		t.Fatalf("degenerate run: retired %d, stall cycles %d, L2 misses %d", c.Retired, c.StallCycles, c.hier.L2MissCount)
	}
	// A fill un-parks nothing, so a parked load is probed once when it
	// parks and once when an MSHR is free for it: nowhere near the naive
	// core's probe per queued load per cycle.
	h := c.hier
	probes := h.L1D().Hits + h.L1D().Misses + h.MSHRFullNACK
	perMiss := float64(probes) / float64(h.L2MissCount)
	t.Logf("%d hierarchy probes for %d L2 misses (%.2f per miss; naive core %.1f)", probes, h.L2MissCount, perMiss,
		float64(ref.hier.L1D().Hits+ref.hier.L1D().Misses+ref.hier.MSHRFullNACK)/float64(ref.hier.L2MissCount))
	if perMiss > 3 {
		t.Errorf("%.2f hierarchy probes per L2 miss, want at most 3: parked loads are being re-probed", perMiss)
	}
}

// TestRestoreParkedLoads: the parked count is not in the checkpoint, so a
// restored core recounts it; and a snapshot whose parked bit sits over a
// load whose line is outstanding or cached — a load that would sleep
// through its own fill, since issueLoads trusts the parked-load
// invariant — is refused with an error naming the ROB slot.
func TestRestoreParkedLoads(t *testing.T) {
	p := trace.Profile{
		Name: "parky", MemFrac: 0.6, StoreFrac: 0.2,
		SeqFrac: 0.5, Streams: 4, WorkingSetKB: 65536,
		FpFrac: 0.2, DepFrac: 0.3,
	}
	// wedged returns a core that ran with prompt fills, then without any
	// until its loads parked, and a line its caches hold.
	wedged := func() (c *Core, cached uint64) {
		c = newCore(t, p)
		for now := int64(0); now < 5_000; now++ {
			c.Tick(now)
			if now >= 3_000 {
				continue
			}
			h := c.hier
			for {
				addr, tok, ok := h.NextFetch()
				if !ok {
					break
				}
				h.FetchAccepted()
				h.Fill(tok)
				c.OnFill(tok, now)
				cached = addr
			}
		}
		if c.parked == 0 || !c.hier.L2().Lookup(cached) {
			t.Fatalf("set-up: %d parked loads, line %#x cached: %v", c.parked, cached, c.hier.L2().Lookup(cached))
		}
		return c, cached
	}
	restore := func(c *Core) (*Core, error) {
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
		return back, back.State(dec)
	}
	parkedSlot := func(c *Core) int32 {
		for i, nack := range c.issueNACK {
			if nack {
				return c.issueQ[i]
			}
		}
		panic("unreachable: parked > 0")
	}

	c, cached := wedged()
	back, err := restore(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.parked != c.parked {
		t.Fatalf("restored core counts %d parked entries, want %d", back.parked, c.parked)
	}

	for _, tc := range []struct {
		name string
		line func(c *Core) uint64
		want string
	}{
		{"outstanding", func(c *Core) uint64 { return c.hier.TokenAddr(0) }, "has an MSHR outstanding"},
		{"cached", func(*Core) uint64 { return cached }, "is cached"},
	} {
		c, _ := wedged()
		slot := parkedSlot(c)
		c.rob[slot].addr = tc.line(c)
		_, err := restore(c)
		if want := fmt.Sprintf("ROB slot %d parked on line %#x, which %s", slot, c.rob[slot].addr, tc.want); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, want)
		}
	}
}

// TestStateRefusesForeignSource: the synthetic generator is the one
// instruction source with a cursor on the wire. A core on any other
// refuses to checkpoint, and to restore, with an error, not a panic.
func TestStateRefusesForeignSource(t *testing.T) {
	foreign := func() *Core {
		c := newCoreOn(t, &collidingSource{rng: 0x9e3779b97f4a7c15})
		for now := int64(0); now < 1_000; now++ {
			c.Tick(now)
		}
		return c
	}
	const want = "unserializable instruction source *cpu.collidingSource"

	var buf bytes.Buffer
	if err := foreign().State(snapshot.NewEncoder(&buf)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("checkpoint error %v, want one containing %q", err, want)
	}

	buf.Reset()
	enc := snapshot.NewEncoder(&buf)
	if err := newCore(t, computeProfile()).State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign().State(dec); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("restore error %v, want one containing %q", err, want)
	}
}
