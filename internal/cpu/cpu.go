// Package cpu implements the trace-driven out-of-order core model that
// stands in for the paper's IBM-Research structural simulator. It keeps
// the Table 5 structures that shape the memory request process — a
// 128-entry reorder buffer, dispatch/retire width, load/store queues,
// and the L1/L2 MSHR path — while abstracting functional-unit detail.
// Register dependences come from the trace generator; address
// dependences between loads model pointer chasing and bound a thread's
// memory-level parallelism, which is what the paper's latency-sensitive
// benchmarks (vpr) stress.
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Config sizes the core (Table 5 defaults via DefaultConfig).
type Config struct {
	ROB            int
	DispatchWidth  int
	RetireWidth    int
	LoadQueue      int // in-flight loads (issued, not completed)
	StoreBuffer    int // retired stores awaiting cache write
	LoadsPerCycle  int // cache load ports
	StoresPerCycle int // cache store ports
	IFetchEvery    int // instructions per I-fetch probe (line granularity)
}

// DefaultConfig returns the paper's Table 5 core parameters.
func DefaultConfig() Config {
	return Config{
		ROB:            128,
		DispatchWidth:  4,
		RetireWidth:    4,
		LoadQueue:      32,
		StoreBuffer:    16,
		LoadsPerCycle:  2,
		StoresPerCycle: 1,
		IFetchEvery:    16,
	}
}

// StreamConfig returns the accelerator-style streaming agent's core
// (trace.AgentStream): a deep reorder buffer and load/store queues with
// wide dispatch, so the agent's throughput depends on bandwidth, not on
// any individual load's latency — the latency-tolerant heterogeneous
// co-runner of the adversarial-isolation suite.
func StreamConfig() Config {
	return Config{
		ROB:            512,
		DispatchWidth:  8,
		RetireWidth:    8,
		LoadQueue:      128,
		StoreBuffer:    64,
		LoadsPerCycle:  4,
		StoresPerCycle: 2,
		IFetchEvery:    16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ROB < 1 || c.DispatchWidth < 1 || c.RetireWidth < 1 ||
		c.LoadQueue < 1 || c.StoreBuffer < 1 || c.LoadsPerCycle < 1 ||
		c.StoresPerCycle < 1 || c.IFetchEvery < 1 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

const unresolved = int64(-1)
const nilIdx = int32(-1)

// entry is one reorder-buffer slot.
type entry struct {
	kind       trace.Kind
	addr       uint64
	lat        int32
	completeAt int64 // unresolved until known
	wakeHead   int32 // dependents waiting for this entry to resolve
	wakeNext   int32 // link in the producer's wake list
	inIssueQ   bool  // loads: queued for cache access
}

// Core is one hardware thread's processor model.
type Core struct {
	id      int
	cfg     Config
	gen     trace.Source
	genFast *trace.Generator // non-nil when gen is the synthetic generator (devirtualized hot path)
	hier    *cache.Hierarchy

	rob   []entry
	head  int32
	count int32

	issueQ    []int32 // rob slots of loads awaiting cache access
	issueRdy  []int64 // readyAt per issueQ entry
	issueNACK []bool  // entry NACKed (MSHR full); see the parked-load invariant at issueLoads
	parked    int     // entries of issueNACK that are set
	inFlight  int     // loads issued, not completed

	storeBuf  []uint64 // retired store line addresses awaiting cache write
	storeNACK bool     // head store NACKed; retry only after a fill

	tokenWaiters [][]int32 // MSHR token -> rob slots awaiting fill
	tokenStall   int       // MSHR token stalling dispatch (ifetch), -1 none
	ifetchNACK   bool      // ifetch NACKed (MSHR full); parked until a fill
	ifetchRetry  bool      // retry the latched ifetchLine instead of CodeLine
	ifetchLine   uint64    // latched line address of a parked ifetch

	sinceIFetch int

	ins trace.Instr // dispatch scratch (avoids a per-instruction heap allocation)

	// Retired counts committed instructions.
	Retired int64
	// LoadsRetired and StoresRetired break down commits.
	LoadsRetired, StoresRetired int64
	// StallCycles counts cycles on which the ROB held instructions but
	// none retired (the classic ROB-stall / commit-stall measure). The
	// event-driven fast path credits skipped spans via CreditStall, so
	// the count is identical in fast and strict modes.
	StallCycles int64
}

// New returns a core running the given instruction source (a synthetic
// generator or a replayed trace) against the given private cache
// hierarchy.
func New(id int, cfg Config, gen trace.Source, hier *cache.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		id:           id,
		cfg:          cfg,
		gen:          gen,
		hier:         hier,
		rob:          make([]entry, cfg.ROB),
		tokenWaiters: make([][]int32, 64),
		tokenStall:   -1,
	}
	c.genFast, _ = gen.(*trace.Generator)
	return c, nil
}

// ID returns the core's hardware thread id.
func (c *Core) ID() int { return c.id }

// Hierarchy returns the core's private cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Generator returns the core's instruction source.
func (c *Core) Generator() trace.Source { return c.gen }

// slot converts a logical ROB position (0 = oldest) to a ring index.
// head and pos are both below the ROB size, so one conditional subtract
// replaces the (much slower) integer modulo on this per-instruction path.
func (c *Core) slot(pos int32) int32 {
	s := c.head + pos
	if n := int32(len(c.rob)); s >= n {
		s -= n
	}
	return s
}

// resolve sets an entry's completion time and cascades to dependents
// whose times become computable.
func (c *Core) resolve(idx int32, at int64) {
	var stack [8]int32
	work := stack[:0]
	c.rob[idx].completeAt = at
	work = append(work, idx)
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		t := c.rob[p].completeAt
		w := c.rob[p].wakeHead
		c.rob[p].wakeHead = nilIdx
		for w != nilIdx {
			next := c.rob[w].wakeNext
			c.rob[w].wakeNext = nilIdx
			e := &c.rob[w]
			switch e.kind {
			case trace.KindLoad:
				// Address now computable: queue for cache access.
				c.pushIssue(w, t)
			default:
				// ALU/branch/store: completes lat cycles after operands.
				e.completeAt = t + int64(e.lat)
				work = append(work, w)
			}
			w = next
		}
	}
}

func (c *Core) pushIssue(idx int32, readyAt int64) {
	c.rob[idx].inIssueQ = true
	c.issueQ = append(c.issueQ, idx)
	c.issueRdy = append(c.issueRdy, readyAt)
	c.issueNACK = append(c.issueNACK, false)
}

// attachWaiter links waiter onto producer's wake list.
func (c *Core) attachWaiter(producer, waiter int32) {
	c.rob[waiter].wakeNext = c.rob[producer].wakeHead
	c.rob[producer].wakeHead = waiter
}

// Tick advances the core one cycle: retire, drain stores, issue loads,
// dispatch.
func (c *Core) Tick(now int64) {
	stalled := c.count > 0
	r0 := c.Retired
	c.retire(now)
	if stalled && c.Retired == r0 {
		c.StallCycles++
	}
	c.drainStores()
	c.issueLoads(now)
	c.dispatch(now)
}

// CreditStall accounts n skipped cycles as ROB stalls when the ROB is
// non-empty. The event-driven system simulator calls it for the span it
// skips past a core: a skipped cycle is by construction one on which
// Tick would have made no progress, so a non-empty ROB retires nothing.
func (c *Core) CreditStall(n int64) {
	if c.count > 0 {
		c.StallCycles += n
	}
}

func (c *Core) retire(now int64) {
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		idx := c.head
		e := &c.rob[idx]
		if e.completeAt == unresolved || e.completeAt > now {
			return
		}
		if e.kind == trace.KindStore {
			if len(c.storeBuf) >= c.cfg.StoreBuffer {
				return // store buffer full: stall retirement
			}
			c.storeBuf = append(c.storeBuf, e.addr)
			c.StoresRetired++
		} else if e.kind == trace.KindLoad {
			c.LoadsRetired++
		}
		c.Retired++
		c.head++
		if c.head == int32(len(c.rob)) {
			c.head = 0
		}
		c.count--
	}
}

// drainStores performs the cache write for retired stores. Stores are
// posted: a store miss allocates an MSHR (write-allocate fetch) but
// wakes nothing; MSHR-full NACKs retry. A NACK can only clear when a
// fill frees an MSHR (the private hierarchy changes in no other way), so
// the retry is deferred until OnFill instead of re-probing the caches
// every cycle. A store that allocates is one of the three sites that
// un-park queued loads to its line (see issueLoads).
func (c *Core) drainStores() {
	if c.storeNACK {
		return
	}
	for n := 0; n < c.cfg.StoresPerCycle && len(c.storeBuf) > 0; n++ {
		addr := c.storeBuf[0]
		res := c.hier.Access(cache.ClassStore, addr)
		if res.NACK {
			c.storeNACK = true
			return
		}
		if !res.Hit && !res.Merged {
			c.unparkLine(addr)
		}
		c.storeBuf = c.storeBuf[:copy(c.storeBuf, c.storeBuf[1:])]
	}
}

// unparkLine clears the parked mark of every queued load to lineAddr, so
// its next probe merges into the MSHR the caller just allocated for that
// line (an access that neither hit, merged, nor was refused).
func (c *Core) unparkLine(lineAddr uint64) {
	if c.parked == 0 {
		return
	}
	for i, nack := range c.issueNACK {
		if nack && c.rob[c.issueQ[i]].addr == lineAddr {
			c.issueNACK[i] = false
			c.parked--
		}
	}
}

// issueLoads probes the hierarchy for ready queued loads, oldest first,
// until LoadsPerCycle have issued. A load refused for want of an MSHR is
// parked (issueNACK), and stays parked under one invariant: a parked
// entry names a line that is in neither L1D nor L2 nor the MSHR file.
// It holds when Access returns NACK, and only an MSHR allocation for
// that line can break it (a line enters the caches only through the
// fill of an MSHR), so the three sites where this core's access
// allocates — here, drainStores, and the ifetch in dispatch — un-park
// the loads to the allocated line. While the MSHR file is full a parked
// entry's probe is therefore a NACK by construction and is not made;
// once an MSHR is free the entry is probed in its turn like any other.
// A fill alone un-parks nothing.
func (c *Core) issueLoads(now int64) {
	// With the load queue full, or every queued load parked behind a full
	// MSHR file, each iteration below would skip its entry: the
	// memory-bound steady state. The cheap tests come first; a
	// compute-bound core never reaches the hierarchy's.
	if len(c.issueQ) == 0 || c.inFlight >= c.cfg.LoadQueue ||
		(c.parked == len(c.issueQ) && c.hier.Full()) {
		return
	}
	issued := 0
	for i := 0; i < len(c.issueQ) && issued < c.cfg.LoadsPerCycle; i++ {
		if c.issueRdy[i] > now || c.inFlight >= c.cfg.LoadQueue ||
			(c.issueNACK[i] && c.hier.Full()) {
			continue
		}
		idx := c.issueQ[i]
		e := &c.rob[idx]
		res := c.hier.Access(cache.ClassLoad, e.addr)
		if res.NACK {
			// MSHR full: park the entry instead of re-probing every cycle.
			c.issueNACK[i] = true
			c.parked++
			continue
		}
		if c.issueNACK[i] {
			c.parked--
		}
		issued++
		e.inIssueQ = false
		c.inFlight++
		// Remove from queue (order need not be preserved, but keep it
		// for FIFO fairness among ready loads).
		c.issueQ = append(c.issueQ[:i], c.issueQ[i+1:]...)
		c.issueRdy = append(c.issueRdy[:i], c.issueRdy[i+1:]...)
		c.issueNACK = append(c.issueNACK[:i], c.issueNACK[i+1:]...)
		i--
		if res.Hit {
			c.resolve(idx, now+int64(res.Latency))
			c.inFlight--
			continue
		}
		if !res.Merged {
			c.unparkLine(e.addr)
		}
		c.addTokenWaiter(res.Token, idx)
	}
}

func (c *Core) addTokenWaiter(token int, idx int32) {
	for token >= len(c.tokenWaiters) {
		c.tokenWaiters = append(c.tokenWaiters, nil)
	}
	c.tokenWaiters[token] = append(c.tokenWaiters[token], idx)
}

// OnFill delivers a memory fill for an MSHR token: all loads waiting on
// it complete and the hierarchy installs the line. The system simulator
// calls this from the controller's read-completion callback.
func (c *Core) OnFill(token int, now int64) {
	if c.tokenStall == token {
		c.tokenStall = -1
	}
	// An MSHR freed: the parked store and ifetch may now succeed. Parked
	// loads stay marked; issueLoads probes them while an MSHR is free.
	c.storeNACK = false
	c.ifetchNACK = false
	if token < len(c.tokenWaiters) {
		ws := c.tokenWaiters[token]
		c.tokenWaiters[token] = ws[:0]
		for _, idx := range ws {
			c.resolve(idx, now+1)
			c.inFlight--
		}
	}
}

func (c *Core) dispatch(now int64) {
	if c.tokenStall >= 0 || c.ifetchNACK {
		return // waiting for an instruction-fetch fill or a free MSHR
	}
	for n := 0; n < c.cfg.DispatchWidth && int(c.count) < c.cfg.ROB; n++ {
		if c.ifetchRetry || c.sinceIFetch >= c.cfg.IFetchEvery {
			line, ok := c.ifetchLine, true
			if !c.ifetchRetry {
				if c.genFast != nil {
					line, ok = c.genFast.CodeLine()
				} else {
					line, ok = c.gen.CodeLine()
				}
			}
			if ok {
				res := c.hier.Access(cache.ClassIFetch, line)
				switch {
				case res.NACK:
					// MSHR full: park the fetch and retry the same line
					// once a fill frees an entry (OnFill clears the NACK).
					c.ifetchLine = line
					c.ifetchRetry = true
					c.ifetchNACK = true
					return
				case !res.Hit:
					if !res.Merged {
						c.unparkLine(line)
					}
					c.ifetchRetry = false
					c.sinceIFetch = 0
					c.tokenStall = res.Token
					return
				}
			}
			c.ifetchRetry = false
			c.sinceIFetch = 0
		}
		c.sinceIFetch++

		ins := &c.ins
		if c.genFast != nil {
			c.genFast.Next(ins)
		} else {
			c.gen.Next(ins)
		}
		pos := c.count
		idx := c.slot(pos)
		e := &c.rob[idx]
		*e = entry{
			kind:       ins.Kind,
			addr:       ins.Addr,
			lat:        int32(ins.Lat),
			completeAt: unresolved,
			wakeHead:   nilIdx,
			wakeNext:   nilIdx,
		}
		if e.kind == trace.KindStore {
			e.lat = 1
		}
		c.count++

		// Resolve the register/address dependence.
		depAt := now // operands ready now if no in-ROB producer
		depPending := int32(nilIdx)
		if ins.Dep > 0 && int32(ins.Dep) <= pos {
			pIdx := c.slot(pos - int32(ins.Dep))
			p := &c.rob[pIdx]
			if p.completeAt == unresolved {
				depPending = pIdx
			} else if p.completeAt > depAt {
				depAt = p.completeAt
			}
		}
		switch {
		case depPending != nilIdx:
			c.attachWaiter(depPending, idx)
		case e.kind == trace.KindLoad:
			c.pushIssue(idx, depAt)
		default:
			e.completeAt = depAt + int64(e.lat)
		}
	}
}

// Forever is the NextWork sentinel for "blocked until a memory fill":
// no amount of waiting will make Tick progress without external input.
const Forever = int64(1) << 62

// NextWork returns a conservative bound on the earliest cycle >= from at
// which Tick can make progress: `from` itself when the core is busy, a
// later cycle when every pipeline stage is waiting on a known time, and
// Forever when all stages are blocked on a memory fill. The bound is
// safe to cache until the next OnFill: between fills the core's inputs
// (the MSHR file's occupancy among them) change only with its own ticks.
// The head is kept small enough to inline, so a busy core pays a compare
// and not a call.
func (c *Core) NextWork(from int64) int64 {
	// Dispatch: runs every cycle unless stalled on an ifetch fill, an
	// MSHR-full ifetch NACK, or a full ROB.
	if c.tokenStall < 0 && !c.ifetchNACK && int(c.count) < c.cfg.ROB {
		return from
	}
	return c.nextWorkBlocked(from)
}

// nextWorkBlocked is NextWork for a core whose dispatch cannot run.
func (c *Core) nextWorkBlocked(from int64) int64 {
	// Stores: the drain probes the cache every cycle while unparked.
	if len(c.storeBuf) > 0 && !c.storeNACK {
		return from
	}
	next := Forever
	// Retire: the oldest instruction completes at a known cycle, unless
	// it is unresolved (waiting on a fill) or a store stalled on a full
	// store buffer (which drains only after a fill, handled above).
	if c.count > 0 {
		e := &c.rob[c.head]
		if e.completeAt != unresolved &&
			!(e.kind == trace.KindStore && len(c.storeBuf) >= c.cfg.StoreBuffer) {
			if e.completeAt <= from {
				return from
			}
			next = e.completeAt
		}
	}
	// Loads: queued entries become issuable at known ready times. A full
	// load queue clears only on a fill; a parked entry is issuable exactly
	// while an MSHR is free (several fills can land in one cycle and
	// LoadsPerCycle bounds how many of them the next tick hands out).
	if c.inFlight < c.cfg.LoadQueue {
		full := c.hier.Full()
		if full && c.parked == len(c.issueQ) {
			return next
		}
		for i, r := range c.issueRdy {
			if full && c.issueNACK[i] {
				continue
			}
			if r <= from {
				return from
			}
			if r < next {
				next = r
			}
		}
	}
	return next
}

// Drained reports whether the core has no in-flight memory activity
// (used by tests to settle the system).
func (c *Core) Drained() bool {
	return c.inFlight == 0 && len(c.storeBuf) == 0 && c.hier.OutstandingMisses() == 0
}
