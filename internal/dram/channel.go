package dram

import (
	"fmt"
	"math"

	"repro/internal/addrmap"
)

// Kind identifies an SDRAM command. The paper calls activate and
// precharge "RAS commands" and read and write "CAS commands".
type Kind uint8

const (
	KindNone Kind = iota
	KindActivate
	KindRead
	KindWrite
	KindPrecharge
	KindRefresh
)

// IsCAS reports whether the command is a column access (read or write).
func (k Kind) IsCAS() bool { return k == KindRead || k == KindWrite }

func (k Kind) String() string {
	switch k {
	case KindActivate:
		return "ACT"
	case KindRead:
		return "RD"
	case KindWrite:
		return "WR"
	case KindPrecharge:
		return "PRE"
	case KindRefresh:
		return "REF"
	}
	return "NOP"
}

// minTime is "minus infinity" for last-issue timestamps.
const minTime = math.MinInt64 / 4

// Config describes the geometry of one memory channel.
type Config struct {
	Timing       Timing
	Ranks        int
	BanksPerRank int
	RowsPerBank  int
	ColsPerRow   int // cache lines per row
}

// DefaultConfig is the paper's Table 5 memory system (addrmap.Table5)
// at DDR2-800 timing.
func DefaultConfig() Config {
	g := addrmap.Table5()
	return Config{
		Timing:       DDR2800(),
		Ranks:        g.Ranks,
		BanksPerRank: g.BanksPerRank,
		RowsPerBank:  g.RowsPerBank,
		ColsPerRow:   g.ColsPerRow,
	}
}

// Banks returns the total number of banks on the channel.
func (c Config) Banks() int { return c.Ranks * c.BanksPerRank }

// Geometry returns the shape of a memory system of the given number of
// these channels: the one conversion from the device's four dimensions
// to what the address mappers and their validator speak.
func (c Config) Geometry(channels int) addrmap.Geometry {
	return addrmap.Geometry{
		Channels:     channels,
		Ranks:        c.Ranks,
		BanksPerRank: c.BanksPerRank,
		RowsPerBank:  c.RowsPerBank,
		ColsPerRow:   c.ColsPerRow,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	return c.Geometry(1).Validate()
}

// bank is the state machine for one DRAM bank.
type bank struct {
	open bool
	row  int

	lastActivate  int64
	lastRead      int64
	lastWrite     int64
	lastPrecharge int64
	writeDataEnd  int64 // end of the most recent write burst to this bank

	// busyCycles accumulates cycles the bank spent with a row open or
	// precharging (activate issue through precharge completion), the
	// paper's Figure 7 "bank utilization" numerator.
	busyCycles int64

	// Per-bank command counts for the observability layer (metrics
	// registry snapshots read them; the simulation never does).
	activates, precharges, reads, writes int64

	// Occupant identity: the thread whose command set each timestamp
	// (-1 before any command, and for commands issued on no thread's
	// behalf). BlockingCause reads these to name the aggressor behind a
	// binding timing constraint; the simulation never does.
	actThread, readThread, writeThread, preThread int
}

// Channel is a cycle-accurate model of a single DDR2 channel: all banks,
// rank-level activate spacing, the shared command bus (one command per
// cycle, enforced by the caller issuing at most one Issue per cycle), the
// shared bidirectional data bus, and refresh.
type Channel struct {
	cfg   Config
	banks []bank

	// Per-rank timestamp of the most recent activate, for tRRD.
	rankLastActivate []int64

	// Channel-global CAS bookkeeping.
	lastCAS        int64 // most recent read or write issue
	lastWriteData  int64 // end of most recent write burst (any bank), for tWTR
	dataBusFreeAt  int64 // first cycle the data bus is free (exclusive end)
	dataBusBusy    int64 // total data-bus busy cycles
	refreshUntil   int64 // banks unavailable until this cycle after REF
	refreshedCount int64

	// Occupant identity mirroring the channel-global timestamps (-1
	// before any command). See bank's occupant fields.
	lastCASThread       int
	lastWriteDataThread int
	dataBusThread       int
	rankLastActThread   []int
}

// NewChannel returns a channel with all banks precharged.
func NewChannel(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{
		cfg:               cfg,
		banks:             make([]bank, cfg.Banks()),
		rankLastActivate:  make([]int64, cfg.Ranks),
		rankLastActThread: make([]int, cfg.Ranks),
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		b.lastActivate = minTime
		b.lastRead = minTime
		b.lastWrite = minTime
		b.lastPrecharge = minTime
		b.writeDataEnd = minTime
		b.actThread, b.readThread, b.writeThread, b.preThread = -1, -1, -1, -1
	}
	for i := range ch.rankLastActivate {
		ch.rankLastActivate[i] = minTime
		ch.rankLastActThread[i] = -1
	}
	ch.lastCAS = minTime
	ch.lastWriteData = minTime
	ch.dataBusFreeAt = minTime
	ch.refreshUntil = minTime
	ch.lastCASThread = -1
	ch.lastWriteDataThread = -1
	ch.dataBusThread = -1
	return ch, nil
}

// Config returns the channel's configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// BankOpen reports whether the bank has an open row, and which.
func (ch *Channel) BankOpen(bankIdx int) (row int, open bool) {
	b := &ch.banks[bankIdx]
	return b.row, b.open
}

// LastActivate returns the cycle of the bank's most recent activate
// command (a large negative value if it was never activated). The FQ
// bank scheduler uses it to apply the priority-inversion bound.
func (ch *Channel) LastActivate(bankIdx int) int64 {
	return ch.banks[bankIdx].lastActivate
}

// ActivateThread returns the thread whose command set the bank's last
// activate (-1 for none): while the bank is open, the thread that opened
// its row. Observation-only, like BlockingCause.
func (ch *Channel) ActivateThread(bankIdx int) int { return ch.banks[bankIdx].actThread }

// BankTimestamps returns the bank's last command-issue cycles (large
// negative values for commands never issued). The audit layer uses them
// to cross-check its shadow bank state against the device.
func (ch *Channel) BankTimestamps(bankIdx int) (lastActivate, lastRead, lastWrite, lastPrecharge int64) {
	b := &ch.banks[bankIdx]
	return b.lastActivate, b.lastRead, b.lastWrite, b.lastPrecharge
}

// DataBusFreeAt returns the first cycle the shared data bus is free (a
// large negative value before any CAS); an audit cross-check accessor.
func (ch *Channel) DataBusFreeAt() int64 { return ch.dataBusFreeAt }

// rankOf returns the rank index of a flat bank index.
func (ch *Channel) rankOf(bankIdx int) int { return bankIdx / ch.cfg.BanksPerRank }

// EarliestIssue returns the first cycle at or after which the given
// command to the given bank satisfies every DDR2 constraint: the bank's
// own timing, rank-level tRRD, channel-level tCCD and tWTR, data-bus
// occupancy, and refresh.
func (ch *Channel) EarliestIssue(kind Kind, bankIdx int) int64 {
	t := &ch.cfg.Timing
	b := &ch.banks[bankIdx]
	e := ch.refreshUntil
	switch kind {
	case KindActivate:
		e = maxi64(e, b.lastPrecharge+int64(t.TRP))
		e = maxi64(e, b.lastActivate+int64(t.TRC))
		e = maxi64(e, ch.rankLastActivate[ch.rankOf(bankIdx)]+int64(t.TRRD))
	case KindRead:
		e = maxi64(e, b.lastActivate+int64(t.TRCD))
		e = maxi64(e, ch.lastCAS+int64(t.TCCD))
		e = maxi64(e, ch.lastWriteData+int64(t.TWTR))
		e = maxi64(e, ch.dataBusFreeAt-int64(t.TCL))
	case KindWrite:
		e = maxi64(e, b.lastActivate+int64(t.TRCD))
		e = maxi64(e, ch.lastCAS+int64(t.TCCD))
		e = maxi64(e, ch.dataBusFreeAt-int64(t.TWL))
	case KindPrecharge:
		e = maxi64(e, b.lastActivate+int64(t.TRAS))
		e = maxi64(e, b.lastRead+int64(t.TRTP))
		e = maxi64(e, b.writeDataEnd+int64(t.TWR))
	case KindRefresh:
		// All banks must be precharged; refresh may start tRP after the
		// latest precharge and tRC after the latest activate. An open
		// bank pushes the earliest time to "never" (the bank must be
		// precharged first, at an unknown future cycle).
		for i := range ch.banks {
			bb := &ch.banks[i]
			if bb.open {
				return 1 << 62
			}
			e = maxi64(e, bb.lastPrecharge+int64(t.TRP))
			e = maxi64(e, bb.lastActivate+int64(t.TRC))
		}
	default:
		panic(fmt.Sprintf("dram: EarliestIssue of %v", kind))
	}
	return e
}

// Ready reports whether the command can issue at cycle now.
func (ch *Channel) Ready(kind Kind, bankIdx int, now int64) bool {
	return ch.EarliestIssue(kind, bankIdx) <= now
}

// BlockCause classifies which resource a binding DDR2 constraint is
// guarding: the bank itself, the shared data bus, a channel-global CAS
// constraint, rank-level activate spacing, or a refresh window.
type BlockCause uint8

const (
	BlockNone BlockCause = iota
	BlockRefresh
	BlockBank
	BlockBus
	BlockChan
	BlockRank
)

func (c BlockCause) String() string {
	switch c {
	case BlockRefresh:
		return "refresh"
	case BlockBank:
		return "bank"
	case BlockBus:
		return "bus"
	case BlockChan:
		return "chan"
	case BlockRank:
		return "rank"
	}
	return "none"
}

// BlockingCause recomputes EarliestIssue term by term and reports the
// binding constraint: the first cycle the command may issue, the
// resource class guarding it, and the thread whose earlier command set
// it (-1 when no thread is responsible — refresh, rank/chan spacing, or
// a timestamp predating any attributed command). Ties resolve in
// precedence order refresh > bank > bus > chan > rank, so attribution
// is deterministic. Observation-only: the scheduler never calls it.
func (ch *Channel) BlockingCause(kind Kind, bankIdx int) (until int64, cause BlockCause, thread int) {
	t := &ch.cfg.Timing
	b := &ch.banks[bankIdx]
	until, cause, thread = ch.refreshUntil, BlockRefresh, -1
	// bind replaces the current answer only on a strictly later term, so
	// among equal maxima the earliest call (highest precedence) wins.
	bind := func(e int64, c BlockCause, th int) {
		if e > until {
			until, cause, thread = e, c, th
		}
	}
	switch kind {
	case KindActivate:
		bind(b.lastPrecharge+int64(t.TRP), BlockBank, b.preThread)
		bind(b.lastActivate+int64(t.TRC), BlockBank, b.actThread)
		rank := ch.rankOf(bankIdx)
		bind(ch.rankLastActivate[rank]+int64(t.TRRD), BlockRank, ch.rankLastActThread[rank])
	case KindRead:
		bind(b.lastActivate+int64(t.TRCD), BlockBank, b.actThread)
		bind(ch.dataBusFreeAt-int64(t.TCL), BlockBus, ch.dataBusThread)
		bind(ch.lastCAS+int64(t.TCCD), BlockChan, ch.lastCASThread)
		bind(ch.lastWriteData+int64(t.TWTR), BlockChan, ch.lastWriteDataThread)
	case KindWrite:
		bind(b.lastActivate+int64(t.TRCD), BlockBank, b.actThread)
		bind(ch.dataBusFreeAt-int64(t.TWL), BlockBus, ch.dataBusThread)
		bind(ch.lastCAS+int64(t.TCCD), BlockChan, ch.lastCASThread)
	case KindPrecharge:
		bind(b.lastActivate+int64(t.TRAS), BlockBank, b.actThread)
		bind(b.lastRead+int64(t.TRTP), BlockBank, b.readThread)
		bind(b.writeDataEnd+int64(t.TWR), BlockBank, b.writeThread)
	default:
		panic(fmt.Sprintf("dram: BlockingCause of %v", kind))
	}
	if until == ch.refreshUntil && cause == BlockRefresh && ch.refreshUntil == minTime {
		// Nothing constrains the command: it was ready from minus
		// infinity.
		return minTime, BlockNone, -1
	}
	return until, cause, thread
}

// Issue applies the command to the device state at cycle now. It panics
// if the command violates a timing constraint or the bank state (these
// indicate controller bugs, not recoverable conditions). For reads it
// returns the cycle at which the data burst completes (the load-to-use
// response time at the controller); for other commands it returns 0.
func (ch *Channel) Issue(kind Kind, bankIdx, row int, now int64) int64 {
	return ch.IssueFrom(kind, bankIdx, row, now, -1)
}

// IssueFrom is Issue with the issuing thread attached: occupant-identity
// fields record who set each timestamp so BlockingCause can name the
// aggressor behind a later wait. thread < 0 means "no thread" (the
// controller's idle-close precharges inherit the thread whose activate
// opened the row — it is that thread's occupancy being drained).
func (ch *Channel) IssueFrom(kind Kind, bankIdx, row int, now int64, thread int) int64 {
	if e := ch.EarliestIssue(kind, bankIdx); e > now {
		panic(fmt.Sprintf("dram: %v bank %d issued at %d, earliest legal %d", kind, bankIdx, now, e))
	}
	t := &ch.cfg.Timing
	b := &ch.banks[bankIdx]
	switch kind {
	case KindActivate:
		if b.open {
			panic(fmt.Sprintf("dram: activate to open bank %d", bankIdx))
		}
		b.open = true
		b.row = row
		b.lastActivate = now
		b.activates++
		b.actThread = thread
		rank := ch.rankOf(bankIdx)
		ch.rankLastActivate[rank] = now
		ch.rankLastActThread[rank] = thread
	case KindRead:
		if !b.open || b.row != row {
			panic(fmt.Sprintf("dram: read bank %d row %d, open=%v row=%d", bankIdx, row, b.open, b.row))
		}
		b.lastRead = now
		b.reads++
		b.readThread = thread
		ch.lastCAS = now
		ch.lastCASThread = thread
		end := now + int64(t.TCL) + int64(t.BL2)
		ch.dataBusFreeAt = end
		ch.dataBusThread = thread
		ch.dataBusBusy += int64(t.BL2)
		return end
	case KindWrite:
		if !b.open || b.row != row {
			panic(fmt.Sprintf("dram: write bank %d row %d, open=%v row=%d", bankIdx, row, b.open, b.row))
		}
		b.lastWrite = now
		b.writes++
		b.writeThread = thread
		ch.lastCAS = now
		ch.lastCASThread = thread
		end := now + int64(t.TWL) + int64(t.BL2)
		b.writeDataEnd = end
		ch.lastWriteData = end
		ch.lastWriteDataThread = thread
		ch.dataBusFreeAt = end
		ch.dataBusThread = thread
		ch.dataBusBusy += int64(t.BL2)
		return end
	case KindPrecharge:
		if !b.open {
			panic(fmt.Sprintf("dram: precharge closed bank %d", bankIdx))
		}
		if thread < 0 {
			thread = b.actThread
		}
		b.open = false
		b.lastPrecharge = now
		b.precharges++
		b.preThread = thread
		// The bank was busy from its activate until the precharge
		// completes tRP cycles from now.
		b.busyCycles += now + int64(t.TRP) - b.lastActivate
	case KindRefresh:
		for i := range ch.banks {
			if ch.banks[i].open {
				panic(fmt.Sprintf("dram: refresh with bank %d open", i))
			}
		}
		ch.refreshUntil = now + int64(t.TRFC)
		ch.refreshedCount++
	default:
		panic(fmt.Sprintf("dram: Issue of %v", kind))
	}
	return 0
}

// AllBanksClosed reports whether every bank is precharged.
func (ch *Channel) AllBanksClosed() bool {
	for i := range ch.banks {
		if ch.banks[i].open {
			return false
		}
	}
	return true
}

// InRefresh reports whether a refresh is in progress at cycle now.
func (ch *Channel) InRefresh(now int64) bool { return now < ch.refreshUntil }

// RefreshEndsAt returns the first cycle after the most recent refresh
// completes (a large negative value if no refresh was ever issued). The
// event-driven controller uses it as the channel's wake time while a
// refresh is in progress.
func (ch *Channel) RefreshEndsAt() int64 { return ch.refreshUntil }

// Refreshes returns the number of refresh commands issued.
func (ch *Channel) Refreshes() int64 { return ch.refreshedCount }

// DataBusBusyCycles returns the cumulative data bus occupancy, the
// numerator of the paper's data bus utilization metric.
func (ch *Channel) DataBusBusyCycles() int64 { return ch.dataBusBusy }

// BankCommandCounts returns the cumulative per-bank command counts
// (activate, precharge, read, write). The observability layer exports
// them; they never feed back into scheduling.
func (ch *Channel) BankCommandCounts(bankIdx int) (act, pre, rd, wr int64) {
	b := &ch.banks[bankIdx]
	return b.activates, b.precharges, b.reads, b.writes
}

// BankBusyCycles returns the cumulative busy cycles summed over all
// banks as of cycle now; banks still open contribute their open time so
// far. This is the numerator of the paper's Figure 7 bank utilization.
func (ch *Channel) BankBusyCycles(now int64) int64 {
	var sum int64
	for i := range ch.banks {
		b := &ch.banks[i]
		sum += b.busyCycles
		if b.open {
			sum += now - b.lastActivate
		}
	}
	return sum
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
