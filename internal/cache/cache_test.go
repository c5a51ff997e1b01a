package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	// 4 sets x 2 ways of 64B lines = 512B.
	c, err := New(Config{SizeKB: 1, Ways: 4, LineBytes: 64, Latency: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigSetsAndValidate(t *testing.T) {
	c := Config{SizeKB: 32, Ways: 4, LineBytes: 64, Latency: 2}
	if c.Sets() != 128 {
		t.Errorf("sets = %d, want 128", c.Sets())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeKB: 0, Ways: 4, LineBytes: 64},
		{SizeKB: 32, Ways: 0, LineBytes: 64},
		{SizeKB: 32, Ways: 4, LineBytes: 64, Latency: -1},
		{SizeKB: 33, Ways: 4, LineBytes: 64}, // 132 sets, not a power of two
		{SizeKB: 1, Ways: 8, LineBytes: 64},  // 2 sets leave no room for a line's flag bits
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, b)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache(t)
	if c.Access(100, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(100, false)
	if !c.Access(100, false) {
		t.Fatal("miss after fill")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache(t) // 4 sets, 4 ways
	// Fill one set (set 0) with 4 lines: addresses 0, 4, 8, 12.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*4, false)
	}
	// Touch lines 0, 8, 12 so line 4 is LRU.
	c.Access(0, false)
	c.Access(8, false)
	c.Access(12, false)
	victim, dirty, evicted := c.Fill(16, false)
	if !evicted || victim != 4 || dirty {
		t.Fatalf("evicted %d (dirty=%v, evicted=%v), want clean 4", victim, dirty, evicted)
	}
	if c.Lookup(4) {
		t.Fatal("victim still present")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := smallCache(t)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	for i := uint64(1); i <= 4; i++ {
		victim, dirty, evicted := c.Fill(i*4, false)
		if evicted && victim == 0 {
			if !dirty {
				t.Fatal("dirty line evicted clean")
			}
			return
		}
	}
	t.Fatal("line 0 never evicted")
}

func TestCacheFillIdempotent(t *testing.T) {
	c := smallCache(t)
	c.Fill(0, false)
	_, _, evicted := c.Fill(0, true)
	if evicted {
		t.Fatal("refill evicted something")
	}
	// The refill's dirty flag sticks.
	for i := uint64(1); i <= 4; i++ {
		victim, dirty, ev := c.Fill(i*4, false)
		if ev && victim == 0 && !dirty {
			t.Fatal("merged dirty bit lost")
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := smallCache(t)
	c.Fill(0, true)
	dirty, present := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v, %v)", dirty, present)
	}
	if _, present := c.Invalidate(0); present {
		t.Fatal("double invalidate")
	}
}

// TestCacheNeverExceedsCapacity: property — after any access pattern,
// the number of resident lines is at most ways*sets.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, _ := New(Config{SizeKB: 1, Ways: 2, LineBytes: 64, Latency: 1})
		for _, a := range addrs {
			if !c.Access(uint64(a), a%3 == 0) {
				c.Fill(uint64(a), false)
			}
		}
		resident := 0
		for a := uint64(0); a < 1<<16; a++ {
			if c.Lookup(a) {
				resident++
			}
		}
		return resident <= 2*c.cfg.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyHitLevels(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss allocates an MSHR.
	res := h.Access(ClassLoad, 1000)
	if res.Hit || res.NACK {
		t.Fatalf("cold access = %+v", res)
	}
	if h.OutstandingMisses() != 1 {
		t.Fatal("MSHR not allocated")
	}
	// Same line: merged.
	res2 := h.Access(ClassLoad, 1000)
	if !res2.Merged || res2.Token != res.Token {
		t.Fatalf("merge = %+v", res2)
	}
	// Fill: now an L1 hit at L1 latency.
	h.Fill(res.Token)
	if h.OutstandingMisses() != 0 {
		t.Fatal("MSHR not freed")
	}
	res3 := h.Access(ClassLoad, 1000)
	if !res3.Hit || res3.Latency != 2 {
		t.Fatalf("after fill = %+v", res3)
	}
}

func TestHierarchyL2HitLatency(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res := h.Access(ClassLoad, 5)
	h.Fill(res.Token)
	// Evict line 5 from L1 only: fill conflicting L1 lines (L1D has 128
	// sets, so addresses 5 + k*128 conflict in L1; L2 has 1024 sets so
	// they conflict there only after 8 ways).
	for k := 1; k <= 4; k++ {
		r := h.Access(ClassLoad, uint64(5+k*128))
		if !r.Hit && !r.NACK {
			h.Fill(r.Token)
		}
	}
	res = h.Access(ClassLoad, 5)
	if !res.Hit {
		t.Fatal("expected L2 hit")
	}
	if res.Latency != 2+12 {
		t.Fatalf("L2 hit latency = %d, want 14", res.Latency)
	}
}

func TestHierarchyMSHRFullNACK(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	h, _ := NewHierarchy(cfg)
	h.Access(ClassLoad, 1)
	h.Access(ClassLoad, 2)
	res := h.Access(ClassLoad, 3)
	if !res.NACK {
		t.Fatal("expected NACK with MSHRs full")
	}
	if h.MSHRFullNACK != 1 {
		t.Errorf("NACK count = %d", h.MSHRFullNACK)
	}
}

// TestHierarchyRefusedProbeIsNotAMiss: a probe refused for want of an
// MSHR is retried by its caller, so it counts as a refusal and not as a
// demand miss at either level; per level, Hits + Misses stays the number
// of accesses the hierarchy served.
func TestHierarchyRefusedProbeIsNotAMiss(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	h, _ := NewHierarchy(cfg)
	h.Access(ClassLoad, 1)
	h.Access(ClassStore, 2)
	if !h.Full() {
		t.Fatal("two misses did not fill a two-entry MSHR file")
	}
	type counts struct{ l1iH, l1iM, l1dH, l1dM, l2H, l2M, l2Miss int64 }
	read := func() counts {
		return counts{h.L1I().Hits, h.L1I().Misses, h.L1D().Hits, h.L1D().Misses,
			h.L2().Hits, h.L2().Misses, h.L2MissCount}
	}
	before := read()
	const n = 9
	for i := 0; i < n; i++ {
		class := []AccessClass{ClassLoad, ClassStore, ClassIFetch}[i%3]
		if res := h.Access(class, uint64(100+i)); !res.NACK {
			t.Fatalf("probe %d of a full MSHR file was not refused: %+v", i, res)
		}
	}
	if after := read(); after != before {
		t.Errorf("refused probes moved the demand counters: %+v -> %+v", before, after)
	}
	if h.MSHRFullNACK != n {
		t.Errorf("MSHRFullNACK = %d, want %d", h.MSHRFullNACK, n)
	}
	// A merge is served, not refused: it is still a miss at both levels.
	if res := h.Access(ClassLoad, 1); !res.Merged {
		t.Fatalf("load to an outstanding line did not merge: %+v", res)
	}
	if got := read(); got.l1dM != before.l1dM+1 || got.l2M != before.l2M+1 {
		t.Errorf("merged miss not counted: %+v -> %+v", before, got)
	}
}

func TestHierarchyStoreMissFillsDirty(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res := h.Access(ClassStore, 42)
	if res.Hit || res.NACK {
		t.Fatalf("store miss = %+v", res)
	}
	h.Fill(res.Token)
	// Thrash line 42 out of both L1 and L2; its dirtiness must surface
	// as exactly one writeback.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Intn(1 << 15))
		if a == 42 {
			continue
		}
		r := h.Access(ClassLoad, a)
		if !r.Hit && !r.NACK {
			h.Fill(r.Token)
		}
	}
	if h.Writebacks == 0 {
		t.Fatal("dirty store line never written back")
	}
	// All writebacks drain through the queue.
	n := 0
	for {
		_, ok := h.NextWriteback()
		if !ok {
			break
		}
		h.WritebackAccepted()
		n++
	}
	if int64(n) != h.Writebacks {
		t.Errorf("drained %d writebacks, counted %d", n, h.Writebacks)
	}
}

func TestHierarchyFetchQueue(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	r1 := h.Access(ClassLoad, 7)
	r2 := h.Access(ClassLoad, 8)
	a, tok, ok := h.NextFetch()
	if !ok || a != 7 || tok != r1.Token {
		t.Fatalf("first fetch = (%d, %d, %v)", a, tok, ok)
	}
	h.FetchAccepted()
	a, tok, ok = h.NextFetch()
	if !ok || a != 8 || tok != r2.Token {
		t.Fatalf("second fetch = (%d, %d, %v)", a, tok, ok)
	}
	h.FetchAccepted()
	if _, _, ok := h.NextFetch(); ok {
		t.Fatal("queue should be empty")
	}
	if got, want := h.TokenAddr(r1.Token), uint64(7); got != want {
		t.Errorf("TokenAddr = %d", got)
	}
	if tok, ok := h.TokenFor(8); !ok || tok != r2.Token {
		t.Errorf("TokenFor(8) = (%d, %v)", tok, ok)
	}
}

func TestHierarchyIFetchFillsL1I(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res := h.Access(ClassIFetch, 77)
	if res.Hit {
		t.Fatal("cold ifetch hit")
	}
	h.Fill(res.Token)
	if !h.L1I().Lookup(77) {
		t.Fatal("ifetch fill missed L1I")
	}
	if h.L1D().Lookup(77) {
		t.Fatal("ifetch fill polluted L1D")
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("accepted 0 MSHRs")
	}
	cfg = DefaultHierarchyConfig()
	cfg.L2.Ways = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("accepted invalid L2")
	}
}

// TestHierarchyInclusionInvariant: after random traffic, every line in
// an L1 is also in L2 (the hierarchy maintains inclusion on L2 evicts).
func TestHierarchyInclusionInvariant(t *testing.T) {
	h, _ := NewHierarchy(HierarchyConfig{
		L1I:        Config{SizeKB: 1, Ways: 2, LineBytes: 64, Latency: 1},
		L1D:        Config{SizeKB: 1, Ways: 2, LineBytes: 64, Latency: 1},
		L2:         Config{SizeKB: 4, Ways: 2, LineBytes: 64, Latency: 4},
		MSHRs:      4,
		WBQueueCap: 64,
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(256))
		class := []AccessClass{ClassLoad, ClassStore, ClassIFetch}[rng.Intn(3)]
		r := h.Access(class, a)
		if !r.Hit && !r.NACK && !r.Merged {
			h.Fill(r.Token)
		}
		for {
			if _, ok := h.NextWriteback(); !ok {
				break
			}
			h.WritebackAccepted()
		}
	}
	for a := uint64(0); a < 256; a++ {
		inL1 := h.L1D().Lookup(a) || h.L1I().Lookup(a)
		if inL1 && !h.L2().Lookup(a) {
			// Lines fetched while an MSHR is pending are exempt.
			if _, pending := h.TokenFor(a); !pending {
				t.Fatalf("line %d in L1 but not L2 (inclusion violated)", a)
			}
		}
	}
}
