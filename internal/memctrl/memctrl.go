// Package memctrl implements the high-performance memory controller of
// the paper's Section 2.2 (Figure 2): per-thread partitioned transaction
// and write buffers with NACK back-pressure, a logical bank scheduler per
// DRAM bank, and a channel scheduler that issues at most one SDRAM
// command per channel per cycle. The scheduling algorithm itself is
// pluggable (core.Policy): FR-FCFS, FR-VFTF, FQ-VFTF, and friends.
//
// The paper evaluates a single memory channel and defers multi-channel
// systems to future work; this controller implements that extension
// (Config.Channels > 1): channels are line-interleaved, each has its own
// command/data buses and bank schedulers, and the VTMS policies keep one
// channel finish-time register per channel.
package memctrl

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RowPolicy selects what the controller does with a row buffer after all
// pending accesses to the row complete.
type RowPolicy uint8

const (
	// ClosedRow precharges the bank as soon as no pending request
	// targets the open row (the paper's default, after Natarajan et
	// al.'s multiprocessor result).
	ClosedRow RowPolicy = iota
	// OpenRow leaves rows open until a conflicting request arrives.
	OpenRow
)

func (p RowPolicy) String() string {
	if p == ClosedRow {
		return "closed"
	}
	return "open"
}

// Config configures a memory controller.
type Config struct {
	// DRAM describes one memory channel.
	DRAM dram.Config

	// Channels is the number of line-interleaved memory channels
	// (0 or 1 = the paper's single-channel system).
	Channels int

	// Threads is the number of hardware threads sharing the controller.
	Threads int

	// ReadEntriesPerThread is the per-thread transaction buffer
	// partition (Table 5: 16).
	ReadEntriesPerThread int

	// WriteEntriesPerThread is the per-thread write buffer partition
	// (Table 5: 8).
	WriteEntriesPerThread int

	// SharedBuffers disables the paper's static per-thread partitioning
	// and pools the transaction and write buffers across threads
	// (capacity Threads x entries). The paper leaves flexible buffer
	// partitioning to future research; pooling is the simplest such
	// policy and the ablation benchmark shows it erodes QoS isolation.
	SharedBuffers bool

	// RowPolicy is the row buffer management policy.
	RowPolicy RowPolicy

	// Mapper decodes line addresses; nil selects the XOR mapping over
	// the DRAM geometry.
	Mapper addrmap.Mapper

	// DisableRefresh turns off periodic refresh (useful in unit tests
	// that need exact cycle counts).
	DisableRefresh bool

	// Audit, Metrics, Trace and Interference each switch on one Observer
	// of the event stream; package sim overwrites all four from the
	// sim.Config fields of the same names, which are the ones to set.
	//
	// Audit attaches the runtime invariant auditor (package audit): every
	// issued SDRAM command and completed request is re-validated against
	// independently recomputed DDR2 timing, conservation, VTMS, and FQ
	// bank-scheduling invariants. A violation panics with the recent
	// command history. Simulation results are identical with or without.
	Audit bool

	// Metrics, when non-nil, registers the controller's observability
	// metrics (per-bank command mix, per-thread occupancy, VTMS lag,
	// FQ priority-inversion windows) with the registry. Metrics never
	// feed back into scheduling: results are bit-identical with or
	// without.
	Metrics *metrics.Registry

	// Trace, when non-nil, streams a Chrome trace-event timeline of
	// every SDRAM command and request lifetime. Like Metrics, it is
	// purely observational.
	Trace *metrics.TraceWriter

	// Interference enables the per-request delay-attribution layer:
	// every cycle a request waits is charged to an exclusive cause and
	// aggressor thread, folding into a cycles[victim][aggressor] matrix
	// (DESIGN §15). Observation-only: results are bit-identical with or
	// without, and with Audit set the conservation invariant (attributed
	// cycles == queueing delay) is enforced per request.
	Interference bool
}

// DefaultConfig returns the paper's Table 5 controller configuration for
// the given thread count.
func DefaultConfig(threads int) Config {
	return Config{
		DRAM:                  dram.DefaultConfig(),
		Channels:              1,
		Threads:               threads,
		ReadEntriesPerThread:  16,
		WriteEntriesPerThread: 8,
		RowPolicy:             ClosedRow,
	}
}

// The counts the controller, the DRAM model and the policies size their
// state from are bounded, so a legal but enormous configuration costs
// an error, not the memory it asks for.
const (
	// MaxChannels bounds the channel count: every channel is a full
	// DRAM model plus per-bank scheduler state. 16 is the largest
	// geometry the roadmap considers.
	MaxChannels = 16

	// MaxBanksPerChannel bounds ranks x banks per rank: every bank is a
	// DRAM state machine, scheduler wake state, per-bank policy state
	// and one transaction queue per thread. The largest channel any
	// simulated system here uses has 16 banks (two ranks of eight); 64,
	// four times that, also holds a four-rank DDR4 channel.
	MaxBanksPerChannel = 64

	// MaxEntriesPerThread bounds each thread's read and write buffer
	// partitions, from which the request arena and every (bank, thread)
	// queue are sized. The deepest partition used here is 32 (Table 5:
	// 16); the bound is four times that.
	MaxEntriesPerThread = 128
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Geometry().Validate(); err != nil {
		return err
	}
	switch {
	case c.Mapper != nil && c.Mapper.Geometry() != c.Geometry():
		return fmt.Errorf("memctrl: mapper %s addresses %+v, the DRAM is %+v", c.Mapper.Name(), c.Mapper.Geometry(), c.Geometry())
	case c.Channels > MaxChannels:
		return fmt.Errorf("memctrl: %d channels, more than the supported maximum of %d", c.Channels, MaxChannels)
	case c.DRAM.Banks() > MaxBanksPerChannel:
		return fmt.Errorf("memctrl: %d banks per channel (%d ranks of %d), more than the supported maximum of %d",
			c.DRAM.Banks(), c.DRAM.Ranks, c.DRAM.BanksPerRank, MaxBanksPerChannel)
	case c.Threads < 1:
		return fmt.Errorf("memctrl: threads must be >= 1, got %d", c.Threads)
	case c.ReadEntriesPerThread < 1:
		return fmt.Errorf("memctrl: read entries per thread must be >= 1, got %d", c.ReadEntriesPerThread)
	case c.WriteEntriesPerThread < 1:
		return fmt.Errorf("memctrl: write entries per thread must be >= 1, got %d", c.WriteEntriesPerThread)
	case c.ReadEntriesPerThread > MaxEntriesPerThread || c.WriteEntriesPerThread > MaxEntriesPerThread:
		return fmt.Errorf("memctrl: %d read and %d write entries per thread, more than the supported maximum of %d",
			c.ReadEntriesPerThread, c.WriteEntriesPerThread, MaxEntriesPerThread)
	}
	return nil
}

// channels returns the effective channel count: zero means one (and a
// negative count is Validate's to refuse).
func (c Config) channels() int {
	if c.Channels == 0 {
		return 1
	}
	return c.Channels
}

// Geometry returns the shape of the whole memory system, the one every
// mapper over it must address.
func (c Config) Geometry() addrmap.Geometry { return c.DRAM.Geometry(c.channels()) }

// TotalBanks returns the flat bank count across all channels.
func (c Config) TotalBanks() int { return c.channels() * c.DRAM.Banks() }

// ThreadStats accumulates per-thread controller statistics.
type ThreadStats struct {
	ReadsAccepted  int64
	WritesAccepted int64
	ReadsDone      int64
	WritesDone     int64
	ReadLatencySum int64 // real cycles, arrival to data burst end
	DataBusCycles  int64 // data bus cycles consumed by this thread
	RowHits        int64 // requests that began service as row hits
	RowConflicts   int64 // requests whose service began with a precharge
	RowClosed      int64 // requests that began service on a closed bank

	// LatHist is the read-latency distribution (8-cycle buckets); the
	// priority-inversion analysis cares about the tail, not the mean.
	LatHist *stats.Histogram
}

// ReadLatencyQuantile returns an upper bound on the q-quantile of the
// thread's read latency (0 when no reads completed).
func (s *ThreadStats) ReadLatencyQuantile(q float64) float64 {
	if s.LatHist == nil {
		return 0
	}
	return s.LatHist.Quantile(q)
}

// AvgReadLatency returns the mean read latency in cycles, or 0 if no
// reads completed.
func (s *ThreadStats) AvgReadLatency() float64 {
	if s.ReadsDone == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsDone)
}

// inflightRead is a read whose data burst is in progress. Within one
// channel completions are FIFO (data-bus occupancy is monotone); across
// channels the controller keeps one queue per channel.
type inflightRead struct {
	slot   int32 // arena slot of the request
	doneAt int64
}

// noSlot marks a candidate that belongs to no request (idle-close
// precharges).
const noSlot = int32(-1)

// candidate is one bank scheduler's offer to the channel scheduler.
type candidate struct {
	slot  int32 // arena slot; noSlot for idle-close precharges
	kind  dram.Kind
	bank  int // flat bank index
	row   int
	key   int64
	arr   int64
	id    uint64
	isCAS bool
	// inverted marks a CAS selected while a same-bank request with a
	// strictly smaller policy key waits (metrics only; computed from
	// the keys the selection loop evaluates anyway, never re-derived).
	inverted bool
}

// The command classes a bank can offer. Which class a request is in, the
// command the class needs, whether it is ready and whether it is a CAS
// are all functions of the bank's state alone, so the bank scheduler
// ranks classes, not requests.
const (
	classMiss  = iota // activate (closed bank) or precharge (another row open)
	classRead         // read of the open row
	classWrite        // write to the open row
	numClasses
)

// pick is the request that ranks first by (key, arrival, ID) in one
// command class; slot is noSlot when the class is empty.
type pick struct {
	slot int32
	key  int64
}

// threadPicks caches one (bank, thread) queue's pick per class. They
// depend only on the queue, the thread's policy state on the channel and
// the bank state (see the core.Policy contract), so each event that can
// move them clears valid: Accept the queue's own, a request command the
// thread's on every bank of the channel, an activate or precharge every
// thread's on the bank, invalidate all of them.
type threadPicks struct {
	valid bool
	best  [numClasses]pick
}

var noPicks = [numClasses]pick{{slot: noSlot}, {slot: noSlot}, {slot: noSlot}}

// Channel decision kinds for the schedule/apply split of Tick.
const (
	decNone uint8 = iota
	decRefresh
	decCmd
)

// decision is one channel's scheduling outcome for the current cycle,
// computed read-mostly by ScheduleChannel and applied by TickEnd.
type decision struct {
	kind uint8
	cand candidate
}

// Controller is the shared memory controller.
type Controller struct {
	cfg    Config
	policy core.Policy
	chans  []*dram.Channel
	mapper addrmap.Mapper

	banksPerChan int

	// Request storage is a preallocated arena sized to the aggregate
	// buffer capacity (threads x (read + write entries)), recycled
	// through a free list: the steady state allocates nothing. Queues
	// hold arena slot indices; pointers into the arena stay valid for a
	// request's whole lifetime because the arena never grows.
	arena     []core.Request
	freeSlots []int32

	// pending is the paper's Figure 2 structure: one transaction queue
	// per (flat bank, thread), index bank*Threads+thread, arena slots in
	// arrival order, each a fixed window of one backing array. picks
	// caches, per queue, the request each command class would offer; see
	// threadPicks.
	pending      [][]int32
	picks        []threadPicks
	pendingTotal int

	readOcc                     []int
	writeOcc                    []int
	readOccTotal, writeOccTotal int

	inflight     [][]inflightRead // per channel, FIFO
	inflightHead []int

	// OnReadDone is invoked when a read's data burst completes; set by
	// the memory-side client (the cache hierarchy) before simulation.
	OnReadDone func(req *core.Request, now int64)

	nextID uint64
	vclock int64 // paper Section 3.1: real clock, paused during refresh

	refreshWanted []bool
	nextRefreshAt []int64

	stats    []ThreadStats
	cmdCount [6]int64 // by dram.Kind

	// dec[c] is channel c's scheduling outcome for the current cycle:
	// ScheduleChannel records it and TickEnd applies it, in channel
	// order, so decisions are carried across the split of Tick (see
	// Tick for why the split stays). cands is ScheduleChannel's
	// candidate scratch, reused channel after channel.
	dec   []decision
	cands []candidate

	// Event-driven scheduling state. bankWake[b] is a conservative lower
	// bound on the next cycle bankSchedule(b) could offer a candidate;
	// banks with a future wake are skipped. nextEvent is a conservative
	// lower bound on the next cycle the controller can do anything at all
	// (complete a read, flip or issue a refresh, or issue a command), so
	// Tick degenerates to a vclock increment before it. Both are
	// invalidated (lowered) only by readiness-changing events: a request
	// acceptance, a command issue on the same channel, a refresh state
	// change, or invalidate. Strict mode clears eventDriven and restores
	// the seed's exhaustive per-cycle scan as an oracle.
	//
	// bankQuiet[b] is what a command on another bank of the channel
	// lowers bankWake[b] to: a cycle before which re-examining b finds
	// no ready request whoever the policy now ranks first (see
	// bankSchedule), 0 when an event since the last examination may have
	// made a request ready at once.
	eventDriven bool
	bankWake    []int64
	bankQuiet   []int64
	nextEvent   int64

	// sched counts the scheduler's own work since New or a restore; see
	// SchedCounts.
	sched SchedCounts

	// ticker is the policy's interval entry point (nil for policies
	// without window-based state). TickBegin fires it on boundary
	// cycles; computeNextEvent clamps to its next boundary so the
	// event-driven path never skips one.
	ticker core.PolicyTicker

	// keysFollowArrival is the policy's core.ArrivalMonotone declaration,
	// read once in New: bankSchedule then ranks only the first unfrozen
	// request of each (class, read/write) group of a queue.
	keysFollowArrival bool

	// obs is the event stream's listeners in attach order (empty when
	// every observer is off); see Observer and attachObservers.
	obs []Observer

	// aud and intf are the optional auditor and interference tracker
	// (nil when off), both also on obs, kept for their accessors and
	// checkpoints.
	aud  *audit.Auditor
	intf *intfTracker

	// tickedAt is the last cycle TickBegin ran for, fast path included:
	// an Accept at that cycle missed the cycle's scheduling.
	tickedAt int64
}

// Forever is the "no event scheduled" sentinel for wake times.
const Forever = int64(1) << 62

// New returns a controller using the given scheduling policy.
func New(cfg Config, policy core.Policy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nch := cfg.channels()
	chans := make([]*dram.Channel, nch)
	for i := range chans {
		ch, err := dram.NewChannel(cfg.DRAM)
		if err != nil {
			return nil, err
		}
		chans[i] = ch
	}
	if cs, ok := policy.(core.ChannelSetter); ok && nch > 1 {
		cs.SetChannels(nch)
	}
	mapper := cfg.Mapper
	if mapper == nil {
		m, err := addrmap.NewXOR(cfg.Geometry())
		if err != nil {
			return nil, err
		}
		mapper = m
	}
	nslots := cfg.Threads * (cfg.ReadEntriesPerThread + cfg.WriteEntriesPerThread)
	c := &Controller{
		cfg:           cfg,
		policy:        policy,
		chans:         chans,
		mapper:        mapper,
		banksPerChan:  cfg.DRAM.Banks(),
		arena:         make([]core.Request, nslots),
		freeSlots:     make([]int32, 0, nslots),
		pending:       make([][]int32, nch*cfg.DRAM.Banks()*cfg.Threads),
		picks:         make([]threadPicks, nch*cfg.DRAM.Banks()*cfg.Threads),
		readOcc:       make([]int, cfg.Threads),
		writeOcc:      make([]int, cfg.Threads),
		inflight:      make([][]inflightRead, nch),
		inflightHead:  make([]int, nch),
		refreshWanted: make([]bool, nch),
		nextRefreshAt: make([]int64, nch),
		stats:         make([]ThreadStats, cfg.Threads),
		dec:           make([]decision, nch),
		cands:         make([]candidate, 0, cfg.DRAM.Banks()),
		eventDriven:   true,
		bankWake:      make([]int64, nch*cfg.DRAM.Banks()),
		bankQuiet:     make([]int64, nch*cfg.DRAM.Banks()),
		tickedAt:      -1,
	}
	c.ticker, _ = policy.(core.PolicyTicker)
	if am, ok := policy.(core.ArrivalMonotone); ok {
		c.keysFollowArrival = am.KeysFollowArrival()
	}
	for i := range c.inflight {
		c.inflight[i] = make([]inflightRead, 0, nslots)
	}
	// A queue can hold every request its thread can have accepted: its
	// own partitions, or with SharedBuffers the whole pool.
	per := cfg.ReadEntriesPerThread + cfg.WriteEntriesPerThread
	if cfg.SharedBuffers {
		per = nslots
	}
	backing := make([]int32, len(c.pending)*per)
	for i := range c.pending {
		c.pending[i] = backing[i*per : i*per : (i+1)*per]
	}
	c.empty()
	for i := range c.stats {
		c.stats[i].LatHist = stats.NewHistogram(8, 512) // up to 4096 cycles
	}
	for i := range c.nextRefreshAt {
		c.nextRefreshAt[i] = int64(cfg.DRAM.Timing.TREF)
		if cfg.DisableRefresh {
			c.nextRefreshAt[i] = 1 << 60
		}
	}
	c.attachObservers()
	return c, nil
}

// Policy returns the active scheduling policy.
func (c *Controller) Policy() core.Policy { return c.policy }

// Channel exposes channel 0's DRAM device model (single-channel tests).
func (c *Controller) Channel() *dram.Channel { return c.chans[0] }

// Channels returns the channel count.
func (c *Controller) Channels() int { return len(c.chans) }

// Mapper returns the address mapper the controller decodes with, so a
// generator that aims at a bank encodes with the same one.
func (c *Controller) Mapper() addrmap.Mapper { return c.mapper }

// DataBusBusyCycles returns the data-bus occupancy summed over channels.
func (c *Controller) DataBusBusyCycles() int64 {
	var sum int64
	for _, ch := range c.chans {
		sum += ch.DataBusBusyCycles()
	}
	return sum
}

// BankBusyCycles returns the busy cycles summed over every bank of every
// channel as of cycle now.
func (c *Controller) BankBusyCycles(now int64) int64 {
	var sum int64
	for _, ch := range c.chans {
		sum += ch.BankBusyCycles(now)
	}
	return sum
}

// Stats returns the accumulated statistics for a thread.
func (c *Controller) Stats(thread int) *ThreadStats { return &c.stats[thread] }

// Threads returns the number of hardware threads sharing the controller.
func (c *Controller) Threads() int { return c.cfg.Threads }

// Occupancy returns a thread's current transaction- and write-buffer
// occupancy (its backlog at the controller).
func (c *Controller) Occupancy(thread int) (reads, writes int) {
	return c.readOcc[thread], c.writeOcc[thread]
}

// CommandCount returns how many commands of the given kind were issued.
func (c *Controller) CommandCount(kind dram.Kind) int64 { return c.cmdCount[kind] }

// SchedCounts is the scheduler's own work since New or a restore, the
// numbers that say how precisely wakes and picks are invalidated: per
// issued command, how many banks were examined, how many pending
// requests those examinations walked, and how many Policy.Key calls the
// re-ranked queues made. Like sim.StepCounts they count simulator
// work, not simulated state: they repeat exactly for a given Config and
// stepping, restart at zero in a restored controller, and are kept out
// of the checkpoint and the metrics registry.
type SchedCounts struct {
	BankExams    int64 // bankSchedule calls
	SlotsVisited int64 // pending requests those calls walked
	KeyEvals     int64 // Policy.Key calls (a frozen key is read, not evaluated)
	CmdsIssued   int64 // SDRAM commands issued, refreshes excluded
}

// SchedCounts returns the scheduler-economy counters.
func (c *Controller) SchedCounts() SchedCounts { return c.sched }

// VClock returns the controller's virtual clock (real cycles excluding
// refresh periods).
func (c *Controller) VClock() int64 { return c.vclock }

// PendingRequests returns the number of requests awaiting service.
func (c *Controller) PendingRequests() int { return c.pendingTotal }

// SetEventDriven toggles the event-driven fast path. Disabling it
// restores the seed's exhaustive per-cycle scan (the strict-mode
// cross-check oracle); simulated results are identical either way.
func (c *Controller) SetEventDriven(on bool) {
	c.eventDriven = on
	c.invalidate()
}

// NextEventAt returns a conservative lower bound on the next cycle at
// which the controller can complete a read, change refresh state, or
// issue a command. Ticks strictly before it are no-ops (apart from the
// virtual clock), which System.Step exploits to skip ahead.
func (c *Controller) NextEventAt() int64 { return c.nextEvent }

// SetShare reassigns thread's bandwidth share at run time, reporting
// whether the policy has shares (core.ShareSetter; FR-FCFS has none).
func (c *Controller) SetShare(thread int, share core.Share) bool {
	ss, ok := c.policy.(core.ShareSetter)
	if ok {
		ss.SetThreadShare(thread, share)
		c.invalidate()
	}
	return ok
}

// invalidate is the one reset of what the scheduler derives (wakes, quiet
// bounds, the next-event bound, picks) for what moves a ranking outside
// the command stream: a share change, a Key-feeding Tick, a restore.
func (c *Controller) invalidate() {
	clear(c.bankWake)
	clear(c.bankQuiet)
	c.nextEvent = 0
	clear(c.picks)
}

// empty leaves the controller as New builds it and a restore decodes
// into it: no request, nothing derived, nothing counted.
func (c *Controller) empty() {
	c.freeSlots = c.freeSlots[:0]
	for i := len(c.arena) - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, int32(i))
	}
	for i := range c.pending {
		c.pending[i] = c.pending[i][:0]
	}
	c.pendingTotal = 0
	c.invalidate()
	c.sched = SchedCounts{}
}

// allocSlot pops a free arena slot. Occupancy admission in Accept
// guarantees one exists: the arena is sized to the aggregate buffer
// capacity.
func (c *Controller) allocSlot() int32 {
	n := len(c.freeSlots) - 1
	if n < 0 {
		panic("memctrl: request arena exhausted (occupancy accounting bug)")
	}
	s := c.freeSlots[n]
	c.freeSlots = c.freeSlots[:n]
	return s
}

// freeSlot recycles an arena slot once nothing can dereference the
// request anymore: after the completion hooks for reads, after
// AfterIssue for writes.
func (c *Controller) freeSlot(s int32) {
	c.freeSlots = append(c.freeSlots, s)
}

// CanAccept reports whether Accept would succeed for the thread right
// now (buffer occupancy only). Occupancy changes
// only at controller event cycles — reads free their entry when the
// data burst completes, writes when the write command issues — so a
// false result stays false until NextEventAt.
func (c *Controller) CanAccept(thread int, isWrite bool) bool {
	if isWrite {
		if c.cfg.SharedBuffers {
			return c.writeOccTotal < c.cfg.WriteEntriesPerThread*c.cfg.Threads
		}
		return c.writeOcc[thread] < c.cfg.WriteEntriesPerThread
	}
	if c.cfg.SharedBuffers {
		return c.readOccTotal < c.cfg.ReadEntriesPerThread*c.cfg.Threads
	}
	return c.readOcc[thread] < c.cfg.ReadEntriesPerThread
}

// SkipTo credits the virtual clock for the skipped cycles [from, to),
// exactly as if Tick had run for each: vclock advances on every cycle
// channel 0 is not refreshing. Callers guarantee the span contains no
// controller event (to <= NextEventAt), so the refresh window active at
// from is the only one overlapping the span.
func (c *Controller) SkipTo(from, to int64) {
	n := to - from
	if ru := c.chans[0].RefreshEndsAt(); ru > from {
		end := ru
		if to < end {
			end = to
		}
		n -= end - from
	}
	c.vclock += n
}

// Accept offers a request to the controller at cycle now. It returns
// false (NACK) when the thread's transaction or write buffer partition
// is full (or, with SharedBuffers, when the pooled buffer is full),
// applying back-pressure to that thread.
func (c *Controller) Accept(thread int, lineAddr uint64, isWrite bool, now int64) bool {
	st := &c.stats[thread]
	switch {
	case !c.CanAccept(thread, isWrite):
		return false
	case isWrite:
		c.writeOcc[thread]++
		c.writeOccTotal++
		st.WritesAccepted++
	default:
		c.readOcc[thread]++
		c.readOccTotal++
		st.ReadsAccepted++
	}
	coord := c.mapper.Decode(lineAddr)
	gb := (coord.Channel*c.cfg.DRAM.Ranks+coord.Rank)*c.cfg.DRAM.BanksPerRank + coord.Bank
	c.nextID++
	slot := c.allocSlot()
	c.arena[slot] = core.Request{
		ID:          c.nextID,
		Thread:      thread,
		Addr:        lineAddr,
		IsWrite:     isWrite,
		Arrival:     c.vclock,
		ArrivalReal: now,
		Rank:        coord.Rank,
		Bank:        coord.Bank,
		Row:         coord.Row,
		Col:         coord.Col,
		Channel:     coord.Channel,
		GlobalBank:  gb,
		Slot:        slot,
	}
	q := gb*c.cfg.Threads + thread
	c.pending[q] = append(c.pending[q], slot)
	c.picks[q].valid = false
	c.pendingTotal++
	// A new request can make its bank schedulable immediately. Wake the
	// bank at now (not now+1): callers may Accept before Tick within the
	// same cycle, and a same-cycle Tick must still see the request.
	if c.bankWake[gb] > now {
		c.bankWake[gb] = now
	}
	c.bankQuiet[gb] = 0
	if c.nextEvent > now {
		c.nextEvent = now
	}
	for _, o := range c.obs {
		o.OnAccept(&c.arena[slot], now)
	}
	return true
}

// chanOf returns the dram channel owning a flat bank.
func (c *Controller) chanOf(flatBank int) (*dram.Channel, int) {
	return c.chans[flatBank/c.banksPerChan], flatBank % c.banksPerChan
}

// classOf returns the command class of r on a bank in the given state
// and the BankState its policy key is evaluated under.
func classOf(r *core.Request, open bool, openRow int) (int, core.BankState) {
	switch {
	case !open:
		return classMiss, core.BankClosed
	case openRow != r.Row:
		return classMiss, core.BankConflict
	case r.IsWrite:
		return classWrite, core.BankHit
	default:
		return classRead, core.BankHit
	}
}

// classKind returns the command a class needs on a bank that is open
// or closed.
func classKind(cls int, open bool) dram.Kind {
	switch {
	case cls == classRead:
		return dram.KindRead
	case cls == classWrite:
		return dram.KindWrite
	case open:
		return dram.KindPrecharge
	}
	return dram.KindActivate
}

// precedes reports whether pick a ranks before pick b: smaller policy
// key, then earlier arrival, then smaller ID.
func (c *Controller) precedes(a, b pick) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	ra, rb := &c.arena[a.slot], &c.arena[b.slot]
	if ra.Arrival != rb.Arrival {
		return ra.Arrival < rb.Arrival
	}
	return ra.ID < rb.ID
}

// offer makes p the class's pick if the class is empty or p precedes
// the pick it holds.
func (c *Controller) offer(best *pick, p pick) {
	if best.slot == noSlot || c.precedes(p, *best) {
		*best = p
	}
}

// better reports whether candidate a beats candidate b under the shared
// priority levels: CAS over RAS, then the policy key, then arrival, then
// ID. (Both candidates are already known to be ready.)
func better(a, b *candidate) bool {
	if a.isCAS != b.isCAS {
		return a.isCAS
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.arr != b.arr {
		return a.arr < b.arr
	}
	return a.id < b.id
}

// Tick advances the controller one cycle: completes finished reads,
// manages refresh, and issues at most one SDRAM command per channel,
// chosen by the bank and channel schedulers. It is the composition of
// the three phases below, which stay separate methods for two reasons:
// the observer seam is defined against them (ScheduleChannel decides and
// emits nothing, TickEnd applies the decisions and emits in channel
// order; DESIGN §18), and a caller that times the phases (the
// benchmark's traced loop) can call TickBegin, ScheduleChannel for each
// channel in order, then TickEnd, with results identical to Tick.
func (c *Controller) Tick(now int64) {
	if !c.TickBegin(now) {
		return
	}
	for chIdx := range c.chans {
		c.ScheduleChannel(chIdx, now)
	}
	c.TickEnd(now)
}

// TickBegin runs the head of a tick: the event-driven fast path,
// read-completion delivery, and the virtual-clock update. It
// reports whether the scheduling phases (ScheduleChannel + TickEnd)
// must run; false means the tick is already complete.
func (c *Controller) TickBegin(now int64) bool {
	c.tickedAt = now
	// Event-driven fast path: nothing can happen before nextEvent, so
	// the whole tick reduces to the virtual-clock update.
	if c.eventDriven && now < c.nextEvent {
		if !c.chans[0].InRefresh(now) {
			c.vclock++
		}
		return false
	}

	// 1. Deliver reads whose data burst has completed.
	for chIdx := range c.chans {
		q := c.inflight[chIdx]
		head := c.inflightHead[chIdx]
		for head < len(q) && q[head].doneAt <= now {
			f := q[head]
			head++
			r := &c.arena[f.slot]
			st := &c.stats[r.Thread]
			st.ReadsDone++
			st.ReadLatencySum += f.doneAt - r.ArrivalReal
			st.LatHist.Add(float64(f.doneAt - r.ArrivalReal))
			c.readOcc[r.Thread]--
			c.readOccTotal--
			if c.OnReadDone != nil {
				c.OnReadDone(r, now)
			}
			for _, o := range c.obs {
				o.OnReadDone(r, f.doneAt, now)
			}
			// Every completion hook has run; the slot can be recycled.
			c.freeSlot(f.slot)
		}
		if head == len(q) {
			// Fully drained: reset in place so long runs reuse the
			// buffer from index 0 instead of crawling rightward and
			// holding peak-sized backing arrays.
			q = q[:0]
			head = 0
		} else if head > 64 && head*2 > len(q) {
			q = append(q[:0], q[head:]...)
			head = 0
		}
		c.inflight[chIdx] = q
		c.inflightHead[chIdx] = head
	}

	// 2. The virtual clock pauses during channel 0's refresh period
	// (the paper's single-channel rule; channels refresh on the same
	// schedule so the approximation is exact for Channels = 1).
	if !c.chans[0].InRefresh(now) {
		c.vclock++
	}

	// 3. Interval-based policies run their window-boundary work. The
	// next-event bound is clamped to NextTickAt, so boundary cycles are
	// always full ticks and this fires at exactly the boundary in fast
	// and strict mode alike. A Key-feeding change invalidates every
	// cached scheduling decision before this cycle's schedule phase.
	if c.ticker != nil && now >= c.ticker.NextTickAt() {
		if c.ticker.Tick(now) {
			c.invalidate()
		}
	}

	for _, o := range c.obs {
		o.OnTick(now)
	}
	return true
}

// ScheduleChannel runs one channel's refresh management and bank
// schedulers for cycle now and records the outcome in the channel's
// decision without applying it; it emits no event. It writes the
// channel's decision, bank wake times, refresh-wanted flag and its
// queues' picks, and nothing another channel's ranking reads, so the
// order channels are scheduled in within a cycle does not matter. The policy's Key purity contract (core.Policy) is
// what makes the ranking sound: Key depends only on request-immutable
// fields and same-channel policy state, both constant until TickEnd
// applies the decisions.
func (c *Controller) ScheduleChannel(chIdx int, now int64) {
	ch := c.chans[chIdx]
	d := &c.dec[chIdx]
	d.kind = decNone
	if now >= c.nextRefreshAt[chIdx] && !c.refreshWanted[chIdx] {
		c.refreshWanted[chIdx] = true
		// Pending refresh changes bank scheduling (idle open rows
		// must drain, activates are suppressed): re-examine the
		// channel's banks. nextEvent is not lowered here — TickEnd
		// recomputes it from the wake lists after every decision.
		lo := chIdx * c.banksPerChan
		for b := lo; b < lo+c.banksPerChan; b++ {
			if c.bankWake[b] > now {
				c.bankWake[b] = now
			}
			c.bankQuiet[b] = 0
		}
	}
	inRefresh := ch.InRefresh(now)
	if c.refreshWanted[chIdx] && !inRefresh && ch.AllBanksClosed() && ch.Ready(dram.KindRefresh, 0, now) {
		d.kind = decRefresh
		return
	}
	if inRefresh {
		return
	}

	// Bank schedulers: each bank offers at most one ready command.
	// Dormant banks (wake time in the future) are skipped: nothing
	// that changes their readiness has happened since the wake was
	// computed, or the wake would have been invalidated.
	cands := c.cands[:0]
	lo := chIdx * c.banksPerChan
	for b := lo; b < lo+c.banksPerChan; b++ {
		if c.eventDriven && c.bankWake[b] > now {
			continue
		}
		cand, ok, wake, quiet := c.bankSchedule(chIdx, b, now)
		if ok {
			cands = append(cands, cand)
		}
		c.bankWake[b] = wake
		c.bankQuiet[b] = quiet
	}
	c.cands = cands
	if len(cands) == 0 {
		return
	}

	// Channel scheduler: select the best ready command.
	best := &cands[0]
	for i := 1; i < len(cands); i++ {
		if better(&cands[i], best) {
			best = &cands[i]
		}
	}
	d.kind = decCmd
	d.cand = *best
}

// TickEnd applies every channel's decision in channel order, emitting
// OnRefresh or the command events as it goes, and recomputes the
// next-event bound.
func (c *Controller) TickEnd(now int64) {
	for chIdx, ch := range c.chans {
		d := &c.dec[chIdx]
		switch d.kind {
		case decRefresh:
			for _, o := range c.obs {
				o.OnRefresh(chIdx, now)
			}
			ch.Issue(dram.KindRefresh, 0, 0, now)
			c.cmdCount[dram.KindRefresh]++
			c.refreshWanted[chIdx] = false
			c.nextRefreshAt[chIdx] += int64(c.cfg.DRAM.Timing.TREF)
			// The channel sleeps until the refresh completes. Raising
			// wakes is safe here (and only here): refreshUntil lower-
			// bounds EarliestIssue of every command on the channel.
			lo := chIdx * c.banksPerChan
			for b := lo; b < lo+c.banksPerChan; b++ {
				c.bankWake[b] = ch.RefreshEndsAt()
			}
		case decCmd:
			c.issue(&d.cand, now)
		}
		d.kind = decNone
	}
	if c.eventDriven {
		c.nextEvent = c.computeNextEvent(now)
	}
}

// computeNextEvent derives the controller's next interesting cycle from
// the per-bank wake times, in-flight data bursts, and refresh state. It
// is called at the end of every full Tick; the result is always at
// least now+1 (the controller never needs to revisit the current
// cycle).
func (c *Controller) computeNextEvent(now int64) int64 {
	next := Forever
	for chIdx, ch := range c.chans {
		// In-flight read completions.
		q := c.inflight[chIdx]
		if head := c.inflightHead[chIdx]; head < len(q) && q[head].doneAt < next {
			next = q[head].doneAt
		}
		// Refresh: the end of the current window, the earliest legal
		// issue of a wanted refresh, or the next deadline.
		switch {
		case ch.InRefresh(now):
			if e := ch.RefreshEndsAt(); e < next {
				next = e
			}
		case c.refreshWanted[chIdx]:
			// EarliestIssue(Refresh) is Forever while a bank is open;
			// the draining precharges are covered by the bank wakes.
			if e := ch.EarliestIssue(dram.KindRefresh, 0); e < next {
				next = e
			}
		default:
			if e := c.nextRefreshAt[chIdx]; e < next {
				next = e
			}
		}
		// Bank scheduler wakes.
		lo := chIdx * c.banksPerChan
		for b := lo; b < lo+c.banksPerChan; b++ {
			if w := c.bankWake[b]; w < next {
				next = w
			}
		}
	}
	// Interval-based policies must run their boundary work on a full
	// tick: never skip past the policy's next window boundary.
	if c.ticker != nil {
		if t := c.ticker.NextTickAt(); t < next {
			next = t
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// bankSchedule runs one bank's scheduler and returns its ready command
// offer, if any, and the bank's wake time: now when it offers, otherwise
// a conservative bound on the earliest cycle at which it could, assuming
// no intervening readiness-changing event (those lower the bank's wake
// through the invalidation hooks). Forever means "only an invalidation
// can revive this bank".
//
// quiet is the bound a command on another bank of the channel lowers
// the wake to in place of now. Such a command moves this bank's DDR2
// constraint timestamps only later, so no pending request can become
// ready before the smallest EarliestIssue among them, however the
// command re-ranked them, and the bank offers only a ready request,
// whether it selects first-ready or by key.
func (c *Controller) bankSchedule(chIdx, b int, now int64) (cand candidate, ok bool, wake, quiet int64) {
	ch := c.chans[chIdx]
	lb := b % c.banksPerChan
	c.sched.BankExams++
	openRow, open := ch.BankOpen(lb)

	// Re-rank the queues whose picks were cleared since they were built,
	// and take each class's first request over all threads.
	nt := c.cfg.Threads
	follow := c.keysFollowArrival
	top := noPicks
	for t, q := range c.pending[b*nt : (b+1)*nt] {
		if len(q) == 0 {
			continue
		}
		p := &c.picks[b*nt+t]
		if !p.valid {
			c.sched.SlotsVisited += int64(len(q))
			p.valid, p.best = true, noPicks
			var heads uint8 // the groups whose first unfrozen request is ranked
			for _, slot := range q {
				r := &c.arena[slot]
				cls, state := classOf(r, open, openRow)
				// Head-of-group rule: when the policy's keys follow arrival
				// (core.ArrivalMonotone), no unfrozen request of this
				// arrival-ordered queue ranks before the first unfrozen one
				// of its (class, read/write) group, so only that one and the
				// frozen keys are ranked. Otherwise heads stays empty and
				// every request is.
				g := uint8(1) << cls
				if r.IsWrite && cls == classMiss {
					g = 1 << numClasses
				}
				if r.KeyFrozen || heads&g == 0 {
					if !r.KeyFrozen {
						c.sched.KeyEvals++
						if follow {
							heads |= g
						}
					}
					c.offer(&p.best[cls], pick{slot, core.KeyOf(c.policy, r, state)})
				}
			}
		}
		for cls := range p.best {
			if s := &p.best[cls]; s.slot != noSlot {
				c.offer(&top[cls], *s)
			}
		}
	}
	// The bank selects by key alone always under RuleStrict, and under
	// RuleFQ once it has been active for x cycles (first-ready while
	// closed or freshly activated).
	strict := false
	switch rule, x := c.policy.BankRule(); {
	case rule == core.RuleStrict:
		strict = true
	case rule == core.RuleFQ && open:
		strict = now >= ch.LastActivate(lb)+x
	}

	// Select among the classes' first requests: every request of a class
	// is as ready and as much a CAS as its first, so the bank's choice,
	// the minima and the bounds below are those of a walk over all of
	// them.
	var (
		best      = -1               // selected class
		bestReady bool               // of the selected class; strict selection sets it below
		early     [numClasses]int64  // EarliestIssue of each non-empty class
		minEarly  = Forever          // min EarliestIssue over requests
		minKey    = int64(1)<<62 - 1 // min key over all requests (metrics only)
	)
	for cls, s := range top {
		if s.slot == noSlot {
			continue
		}
		minKey = min(minKey, s.key)
		early[cls] = ch.EarliestIssue(classKind(cls, open), lb)
		minEarly = min(minEarly, early[cls])
		if strict {
			// Select purely by key order; readiness is not a priority
			// level. (The bank waits for the selected request.)
			if best < 0 || c.precedes(s, top[best]) {
				best = cls
			}
			continue
		}
		// (ready, CAS, key, arrival, id) ordering.
		ready := early[cls] <= now
		switch {
		case best < 0:
		case ready != bestReady:
			if !ready {
				continue
			}
		case best != classMiss:
			// Both are CAS classes (classMiss, the one RAS class, comes
			// first in the loop).
			if !c.precedes(s, top[best]) {
				continue
			}
		}
		best, bestReady = cls, ready
	}
	if best < 0 {
		// Closed-row policy: close an idle open row. While a refresh is
		// pending this also drains the bank.
		if open && (c.cfg.RowPolicy == ClosedRow || c.refreshWanted[chIdx]) {
			e := ch.EarliestIssue(dram.KindPrecharge, lb)
			if e <= now {
				return candidate{
					slot: noSlot,
					kind: dram.KindPrecharge,
					bank: b,
					key:  int64(1) << 62, // lowest priority
					arr:  int64(1) << 62,
					id:   ^uint64(0),
				}, true, now, now
			}
			return candidate{}, false, e, e
		}
		// Idle and closed (or open-row policy): nothing to do until a
		// request arrives or a refresh falls due.
		return candidate{}, false, Forever, Forever
	}
	bestSlot, bestKey, bestKind := top[best].slot, top[best].key, classKind(best, open)
	bestReq := &c.arena[bestSlot]
	bestCAS := best != classMiss
	wake = minEarly
	if strict {
		// The bank waits for the key-selected request alone, so its
		// earliest legal issue is the bank's wake time. (The selection
		// itself only changes on invalidation events: keys move on
		// command issue or SetShare, the request set on accept, and the
		// FQ strict/first-ready flip on this bank's own activates.)
		wake = early[best]
		bestReady = wake <= now
	}
	// A refresh is pending: finish closing the bank but start nothing
	// new. Activates are only selected when the bank is closed, in which
	// case every pending request needs one, so the bank is dormant until
	// the refresh completes (which resets the channel's wakes).
	if c.refreshWanted[chIdx] && bestKind == dram.KindActivate {
		return candidate{}, false, Forever, minEarly
	}
	if !bestReady {
		return candidate{}, false, wake, minEarly
	}
	return candidate{
		slot:     bestSlot,
		kind:     bestKind,
		bank:     b,
		row:      bestReq.Row,
		key:      bestKey,
		arr:      bestReq.Arrival,
		id:       bestReq.ID,
		isCAS:    bestCAS,
		inverted: bestCAS && minKey < bestKey,
	}, true, now, minEarly
}

// issue applies the winning candidate to the DRAM and updates request
// and policy state, announcing the command on either side.
func (c *Controller) issue(cand *candidate, now int64) {
	c.cmdCount[cand.kind]++
	c.sched.CmdsIssued++
	ch, lb := c.chanOf(cand.bank)
	chIdx := cand.bank / c.banksPerChan
	cmd := audit.Cmd{Kind: cand.kind, FlatBank: cand.bank, Row: cand.row, Key: cand.key, Inverted: cand.inverted}
	var r *core.Request // nil for an idle-close precharge
	if cand.slot != noSlot {
		r = &c.arena[cand.slot]
		cmd.Req = r
		if r.Issued == 0 {
			// Record the bank state the request began service in: its
			// first command names it (the inverse of classOf).
			cmd.First = true
			st := &c.stats[r.Thread]
			switch cand.kind {
			case dram.KindPrecharge:
				cmd.State = core.BankConflict
				st.RowConflicts++
			case dram.KindActivate:
				cmd.State = core.BankClosed
				st.RowClosed++
			default:
				cmd.State = core.BankHit
				st.RowHits++
			}
		}
	}
	for _, o := range c.obs {
		o.BeforeIssue(cmd, now)
	}
	// Issuing any command moves the channel-global constraints (tCCD,
	// tWTR, data-bus occupancy), and issuing a request command moves the
	// issuing thread's keys on the channel (see the core.Policy
	// contract), so every bank wake on this channel is stale: the issued
	// bank re-examines at once, every other bank no sooner than its
	// quiet bound. The same command clears the thread's picks on every
	// bank of the channel, which also covers the queue its CAS leaves.
	// nextEvent is not lowered here — TickEnd recomputes it from the
	// wake lists after every decision.
	c.bankQuiet[cand.bank] = 0
	nt := c.cfg.Threads
	lo := chIdx * c.banksPerChan
	for b := lo; b < lo+c.banksPerChan; b++ {
		if w := max(now, c.bankQuiet[b]); c.bankWake[b] > w {
			c.bankWake[b] = w
		}
		if r != nil {
			c.picks[b*nt+r.Thread].valid = false
		}
	}
	// An activate or precharge changes the BankState every Key on the
	// bank is evaluated under.
	if cand.kind == dram.KindActivate || cand.kind == dram.KindPrecharge {
		clear(c.picks[cand.bank*nt : (cand.bank+1)*nt])
	}
	if r == nil {
		// Device state only: no request, and no VTMS charge (no thread
		// is waiting on it).
		ch.Issue(dram.KindPrecharge, lb, 0, now)
	} else {
		cmd.DataEnd = ch.IssueFrom(cand.kind, lb, r.Row, now, r.Thread)
		if cmd.First {
			// The paper's deferred decision (Section 3.2): the key the
			// scheduler just compared is the request's key from here on.
			r.Key, r.KeyFrozen = core.VTime(cand.key), true
		}
		c.policy.OnIssue(r, cand.kind)
		r.Issued++
		if cand.isCAS {
			c.removePending(cand.bank, cand.slot)
			st := &c.stats[r.Thread]
			st.DataBusCycles += int64(c.cfg.DRAM.Timing.BL2)
			if cand.kind == dram.KindRead {
				c.inflight[r.Channel] = append(c.inflight[r.Channel], inflightRead{slot: cand.slot, doneAt: cmd.DataEnd})
			} else {
				st.WritesDone++
				c.writeOcc[r.Thread]--
				c.writeOccTotal--
			}
		}
	}
	for _, o := range c.obs {
		o.AfterIssue(cmd, now)
	}
	if cand.kind == dram.KindWrite {
		// A write retires at its CAS; every observer has seen the
		// request, so the slot can be recycled.
		c.freeSlot(cand.slot)
	}
}

// removePending deletes a request from its (bank, thread) queue,
// preserving order.
func (c *Controller) removePending(bank int, slot int32) {
	qi := bank*c.cfg.Threads + c.arena[slot].Thread
	q := c.pending[qi]
	for i, x := range q {
		if x == slot {
			copy(q[i:], q[i+1:])
			c.pending[qi] = q[:len(q)-1]
			c.pendingTotal--
			return
		}
	}
	panic(fmt.Sprintf("memctrl: request %d (slot %d) not found in bank %d queue", c.arena[slot].ID, slot, bank))
}
