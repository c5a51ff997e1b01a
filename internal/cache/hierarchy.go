package cache

import "fmt"

// HierarchyConfig configures one core's private cache hierarchy
// (Table 5 defaults via DefaultHierarchyConfig).
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MSHRs        int // outstanding line fetches toward memory
	WBQueueCap   int // buffered dirty writebacks toward memory
}

// DefaultHierarchyConfig returns the paper's Table 5 cache hierarchy.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{SizeKB: 32, Ways: 4, LineBytes: 64, Latency: 2},
		L1D:        Config{SizeKB: 32, Ways: 4, LineBytes: 64, Latency: 2},
		L2:         Config{SizeKB: 512, Ways: 8, LineBytes: 64, Latency: 12},
		MSHRs:      16,
		WBQueueCap: 16,
	}
}

// StreamHierarchyConfig returns the accelerator-style streaming
// agent's hierarchy: the Table 5 caches with a deeper MSHR file and
// writeback queue, so the deep-queue core (cpu.StreamConfig) can keep
// more line fetches in flight. Hit latencies are unchanged.
func StreamHierarchyConfig() HierarchyConfig {
	c := DefaultHierarchyConfig()
	c.MSHRs = 64
	c.WBQueueCap = 64
	return c
}

// AccessClass distinguishes the three request sources.
type AccessClass uint8

const (
	// ClassLoad is a data load.
	ClassLoad AccessClass = iota
	// ClassStore is a data store (write-allocate).
	ClassStore
	// ClassIFetch is an instruction fetch.
	ClassIFetch
)

// mshr is one outstanding line fetch toward memory.
type mshr struct {
	lineAddr uint64
	valid    bool
	sent     bool
	store    bool // fill dirty (a store merged into the miss)
	ifetch   bool // fill L1I instead of L1D
}

// Result classifies one hierarchy access.
type Result struct {
	// Hit is true when the access was satisfied on chip; Latency then
	// holds the load-to-use latency in cycles.
	Hit     bool
	Latency int

	// Token identifies the MSHR for a miss; the caller is woken via the
	// same token when the fill arrives. Merged is true when the miss
	// was folded into an existing MSHR.
	Token  int
	Merged bool

	// NACK is true when the MSHR file is full; the caller must retry.
	NACK bool
}

// Hierarchy is one core's private L1I/L1D/L2 with MSHRs and a dirty
// writeback queue.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache

	// Hit latencies, precomputed so the per-access hot path avoids
	// copying whole Config structs out of the cache levels.
	l1iLat, l1dLat, l2Lat int

	mshrs  []mshr
	byAddr map[uint64]int
	free   int

	// sendQ holds MSHR tokens whose fetch has not yet been accepted by
	// the memory controller; consumed from sendHead so the backing
	// array is reused once drained (no steady-state allocation).
	sendQ    []int
	sendHead int
	// wbQ holds dirty line addresses to be written to memory, consumed
	// from wbHead likewise.
	wbQ    []uint64
	wbHead int

	// Statistics.
	L2MissCount  int64
	Writebacks   int64
	MSHRFullNACK int64
}

// NewHierarchy returns an empty hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MSHRs < 1 {
		return nil, fmt.Errorf("cache: MSHRs must be >= 1, got %d", cfg.MSHRs)
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	return &Hierarchy{
		cfg:    cfg,
		l1i:    l1i,
		l1d:    l1d,
		l2:     l2,
		l1iLat: cfg.L1I.Latency,
		l1dLat: cfg.L1D.Latency,
		l2Lat:  cfg.L2.Latency,
		mshrs:  make([]mshr, cfg.MSHRs),
		byAddr: make(map[uint64]int, cfg.MSHRs),
		free:   cfg.MSHRs,
	}, nil
}

// L1I, L1D, and L2 expose the individual levels for statistics.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the L1 data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// OutstandingMisses returns the number of allocated MSHRs.
func (h *Hierarchy) OutstandingMisses() int { return h.cfg.MSHRs - h.free }

// Full reports whether every MSHR is allocated: a miss to a line with
// no outstanding fetch would be refused.
func (h *Hierarchy) Full() bool { return h.free == 0 }

// MSHRs returns the size of the MSHR file, the exclusive upper bound
// on miss tokens.
func (h *Hierarchy) MSHRs() int { return len(h.mshrs) }

// Access performs one load, store, or instruction fetch to the given
// line address.
func (h *Hierarchy) Access(class AccessClass, lineAddr uint64) Result {
	l1, l1Lat := h.l1d, h.l1dLat
	if class == ClassIFetch {
		l1, l1Lat = h.l1i, h.l1iLat
	}
	if l1.Access(lineAddr, class == ClassStore) {
		return Result{Hit: true, Latency: l1Lat}
	}
	if h.l2.Access(lineAddr, false) {
		// Fill L1 from L2; an evicted dirty L1 line is merged back into
		// L2 (both on chip, no memory traffic unless L2 must evict,
		// which cannot happen here since the line is already in L2).
		victim, dirty, evicted := l1.Fill(lineAddr, class == ClassStore)
		if evicted && dirty {
			h.mergeDirtyIntoL2(victim)
		}
		return Result{Hit: true, Latency: l1Lat + h.l2Lat}
	}
	// L2 miss: allocate or merge an MSHR.
	if idx, ok := h.byAddr[lineAddr]; ok {
		m := &h.mshrs[idx]
		if class == ClassStore {
			m.store = true
		}
		return Result{Token: idx, Merged: true}
	}
	if h.free == 0 {
		// A refused probe is retried, so it is not a demand miss: per
		// level, Hits + Misses counts the accesses the hierarchy served.
		l1.Misses--
		h.l2.Misses--
		h.MSHRFullNACK++
		return Result{NACK: true}
	}
	idx := h.allocMSHR(lineAddr, class)
	h.L2MissCount++
	return Result{Token: idx}
}

func (h *Hierarchy) allocMSHR(lineAddr uint64, class AccessClass) int {
	for i := range h.mshrs {
		if !h.mshrs[i].valid {
			h.mshrs[i] = mshr{
				lineAddr: lineAddr,
				valid:    true,
				store:    class == ClassStore,
				ifetch:   class == ClassIFetch,
			}
			h.byAddr[lineAddr] = i
			h.free--
			h.sendQ = append(h.sendQ, i)
			return i
		}
	}
	panic("cache: allocMSHR with no free entry")
}

// mergeDirtyIntoL2 writes a dirty L1 victim into L2, marking it dirty;
// if L2 no longer holds the line (rare), the data goes to memory.
func (h *Hierarchy) mergeDirtyIntoL2(lineAddr uint64) {
	if h.l2.Access(lineAddr, true) {
		return
	}
	// L2 victimized the line after the L1 copy was made: write through
	// to memory.
	h.l2.Misses-- // do not count bookkeeping probes as demand misses
	h.pushWriteback(lineAddr)
}

func (h *Hierarchy) pushWriteback(lineAddr uint64) {
	h.wbQ = append(h.wbQ, lineAddr)
	h.Writebacks++
}

// NextFetch returns the next MSHR fetch awaiting acceptance by the
// memory controller, without consuming it.
func (h *Hierarchy) NextFetch() (lineAddr uint64, token int, ok bool) {
	if h.sendHead >= len(h.sendQ) {
		return 0, 0, false
	}
	idx := h.sendQ[h.sendHead]
	return h.mshrs[idx].lineAddr, idx, true
}

// FetchAccepted consumes the head of the fetch queue after the memory
// controller accepted it.
func (h *Hierarchy) FetchAccepted() {
	idx := h.sendQ[h.sendHead]
	h.mshrs[idx].sent = true
	h.sendHead++
	if h.sendHead == len(h.sendQ) {
		h.sendQ = h.sendQ[:0]
		h.sendHead = 0
	}
}

// NextWriteback returns the next dirty writeback awaiting acceptance.
func (h *Hierarchy) NextWriteback() (lineAddr uint64, ok bool) {
	if h.wbHead >= len(h.wbQ) {
		return 0, false
	}
	return h.wbQ[h.wbHead], true
}

// WritebackAccepted consumes the head of the writeback queue.
func (h *Hierarchy) WritebackAccepted() {
	h.wbHead++
	if h.wbHead == len(h.wbQ) {
		h.wbQ = h.wbQ[:0]
		h.wbHead = 0
	}
}

// Fill delivers the memory response for the MSHR token: the line is
// installed in L2 and the requesting L1, dirty victims are queued for
// writeback, and the token is freed. The caller wakes any instructions
// it registered against the token.
func (h *Hierarchy) Fill(token int) {
	m := &h.mshrs[token]
	if !m.valid {
		panic(fmt.Sprintf("cache: Fill of free MSHR %d", token))
	}
	victim, dirty, evicted := h.l2.Fill(m.lineAddr, false)
	if evicted {
		// The L1s are maintained inclusive: drop any L1 copy of the L2
		// victim, folding its dirtiness into the writeback.
		d1, _ := h.l1d.Invalidate(victim)
		h.l1i.Invalidate(victim)
		if dirty || d1 {
			h.pushWriteback(victim)
		}
	}
	l1 := h.l1d
	if m.ifetch {
		l1 = h.l1i
	}
	v1, d1, ev1 := l1.Fill(m.lineAddr, m.store)
	if ev1 && d1 {
		h.mergeDirtyIntoL2(v1)
	}
	delete(h.byAddr, m.lineAddr)
	m.valid = false
	h.free++
}

// TokenAddr returns the line address an MSHR token is fetching.
func (h *Hierarchy) TokenAddr(token int) uint64 { return h.mshrs[token].lineAddr }

// TokenFor returns the MSHR token outstanding for a line address.
func (h *Hierarchy) TokenFor(lineAddr uint64) (int, bool) {
	idx, ok := h.byAddr[lineAddr]
	return idx, ok
}
