package memctrl

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/metrics"
)

// memMetrics holds the controller's metric handles. A nil *memMetrics
// means the observability layer is off; every hot-path update site
// guards on that single pointer test, so a disabled run costs one
// predicted branch per site and is bit-identical to an uninstrumented
// controller (no metric ever feeds back into scheduling).
type memMetrics struct {
	// Service-start classification per flat bank (the per-bank
	// counterpart of ThreadStats.RowHits/RowConflicts/RowClosed).
	bankRowHit    []*metrics.Counter
	bankRowConf   []*metrics.Counter
	bankRowClosed []*metrics.Counter

	// Transaction/write buffer occupancy per thread, sampled at every
	// successful Accept (after the entry is taken).
	readOcc  []*metrics.Histogram
	writeOcc []*metrics.Histogram

	// VTMS bookkeeping: the real-vs-virtual clock lag (cycles the
	// virtual clock has paused for refresh), as a gauge refreshed on
	// every full tick and a histogram sampled at each refresh issue.
	vclockLag  *metrics.Gauge
	refreshLag *metrics.Histogram

	// FQ priority-inversion accounting: a CAS that overtakes a pending
	// same-bank request with a smaller policy key is an inversion; the
	// window is how long the bank's open row has been favored.
	inversions      *metrics.Counter
	inversionWindow *metrics.Histogram
}

// newMemMetrics registers the controller's metrics. Everything the
// controller already tracks for its simulation results (ThreadStats,
// command counts, DRAM device counters) is exported through Func views
// that read only at snapshot time; only genuinely new measurements get
// hot-path handles.
func newMemMetrics(reg *metrics.Registry, c *Controller) *memMetrics {
	m := &memMetrics{
		bankRowHit:      make([]*metrics.Counter, len(c.pending)),
		bankRowConf:     make([]*metrics.Counter, len(c.pending)),
		bankRowClosed:   make([]*metrics.Counter, len(c.pending)),
		readOcc:         make([]*metrics.Histogram, c.cfg.Threads),
		writeOcc:        make([]*metrics.Histogram, c.cfg.Threads),
		vclockLag:       reg.Gauge("memctrl.vclock_lag"),
		refreshLag:      reg.Histogram("memctrl.refresh_lag"),
		inversions:      reg.Counter("memctrl.fq.inversions"),
		inversionWindow: reg.Histogram("memctrl.fq.inversion_window"),
	}
	for b := range c.pending {
		m.bankRowHit[b] = reg.Counter(fmt.Sprintf("memctrl.bank%d.row_hits", b))
		m.bankRowConf[b] = reg.Counter(fmt.Sprintf("memctrl.bank%d.row_conflicts", b))
		m.bankRowClosed[b] = reg.Counter(fmt.Sprintf("memctrl.bank%d.row_closed", b))
	}
	for t := 0; t < c.cfg.Threads; t++ {
		m.readOcc[t] = reg.Histogram(fmt.Sprintf("memctrl.thread%d.read_occupancy", t))
		m.writeOcc[t] = reg.Histogram(fmt.Sprintf("memctrl.thread%d.write_occupancy", t))
		st := &c.stats[t]
		reg.Func(fmt.Sprintf("memctrl.thread%d.reads_done", t), func() int64 { return st.ReadsDone })
		reg.Func(fmt.Sprintf("memctrl.thread%d.writes_done", t), func() int64 { return st.WritesDone })
		reg.Func(fmt.Sprintf("memctrl.thread%d.read_nacks", t), func() int64 { return st.ReadNACKs })
		reg.Func(fmt.Sprintf("memctrl.thread%d.write_nacks", t), func() int64 { return st.WriteNACKs })
		reg.Func(fmt.Sprintf("memctrl.thread%d.data_bus_cycles", t), func() int64 { return st.DataBusCycles })
	}
	for k := dram.KindActivate; k <= dram.KindRefresh; k++ {
		k := k
		reg.Func("memctrl.cmd."+k.String(), func() int64 { return c.cmdCount[k] })
	}
	reg.Func("memctrl.sched.bank_exams", func() int64 { return c.SchedCounts().BankExams })
	reg.Func("memctrl.sched.slots_visited", func() int64 { return c.SchedCounts().SlotsVisited })
	reg.Func("memctrl.sched.key_evals", func() int64 { return c.SchedCounts().KeyEvals })
	reg.Func("memctrl.sched.cmds_issued", func() int64 { return c.SchedCounts().CmdsIssued })
	reg.Func("memctrl.vclock", func() int64 { return c.vclock })
	reg.Func("memctrl.pending_requests", func() int64 { return int64(c.pendingTotal) })
	for chIdx, ch := range c.chans {
		ch := ch
		prefix := fmt.Sprintf("dram.chan%d.", chIdx)
		reg.Func(prefix+"data_bus_busy_cycles", ch.DataBusBusyCycles)
		reg.Func(prefix+"refreshes", ch.Refreshes)
		for b := 0; b < c.banksPerChan; b++ {
			b := b
			bp := fmt.Sprintf("%sbank%d.", prefix, b)
			reg.Func(bp+"activates", func() int64 { act, _, _, _ := ch.BankCommandCounts(b); return act })
			reg.Func(bp+"precharges", func() int64 { _, pre, _, _ := ch.BankCommandCounts(b); return pre })
			reg.Func(bp+"reads", func() int64 { _, _, rd, _ := ch.BankCommandCounts(b); return rd })
			reg.Func(bp+"writes", func() int64 { _, _, _, wr := ch.BankCommandCounts(b); return wr })
		}
	}
	return m
}

// Trace-event process ids: one process row per channel (banks are its
// thread rows, plus one refresh row), one per hardware thread (request
// lifetimes).
const (
	tracePidChannel = 10  // + channel index
	tracePidThread  = 100 // + thread index
)

// initTrace emits the metadata events naming the trace's rows.
func (c *Controller) initTrace() {
	tw := c.tw
	for chIdx := range c.chans {
		pid := tracePidChannel + chIdx
		tw.ProcessName(pid, fmt.Sprintf("SDRAM channel %d", chIdx))
		for b := 0; b < c.banksPerChan; b++ {
			tw.ThreadName(pid, b, fmt.Sprintf("bank %d", b))
		}
		tw.ThreadName(pid, c.banksPerChan, "refresh")
	}
	for t := 0; t < c.cfg.Threads; t++ {
		pid := tracePidThread + t
		tw.ProcessName(pid, fmt.Sprintf("thread %d requests", t))
		tw.ThreadName(pid, 0, "reads")
		tw.ThreadName(pid, 1, "writes")
	}
}

// cmdDuration returns the display duration of an SDRAM command: the
// window until the command's effect completes (tRCD for an activate,
// CAS latency plus burst for data transfers, tRP for a precharge, tRFC
// for a refresh).
func (c *Controller) cmdDuration(kind dram.Kind) int64 {
	t := &c.cfg.DRAM.Timing
	switch kind {
	case dram.KindActivate:
		return int64(t.TRCD)
	case dram.KindRead:
		return int64(t.TCL) + int64(t.BL2)
	case dram.KindWrite:
		return int64(t.TWL) + int64(t.BL2)
	case dram.KindPrecharge:
		return int64(t.TRP)
	case dram.KindRefresh:
		return int64(t.TRFC)
	}
	return 1
}

// Static key sets for trace events, kept package-level (and the value
// scratch on the Controller) so event emission does not allocate.
var (
	traceCmdKeys  = []string{"thread", "row"}
	traceLifeKeys = []string{"bank", "row", "latency"}
	// With interference attribution on, lifetime slices also carry the
	// other thread charged the most of this request's wait and that
	// charge (-1/0 when nothing was attributed to another thread).
	traceLifeIntfKeys = []string{"bank", "row", "latency", "top_aggressor", "stolen_cycles"}
)

// traceCmd emits one SDRAM command event on the owning bank's row.
// thread < 0 marks a request-less command (idle-close precharge).
func (c *Controller) traceCmd(kind dram.Kind, flatBank, thread, row int, now int64) {
	pid := tracePidChannel + flatBank/c.banksPerChan
	tid := flatBank % c.banksPerChan
	if thread < 0 {
		c.tw.Complete(kind.String(), pid, tid, now, c.cmdDuration(kind))
		return
	}
	c.traceVals[0] = int64(thread)
	c.traceVals[1] = int64(row)
	c.tw.CompleteArgs(kind.String(), pid, tid, now, c.cmdDuration(kind),
		traceCmdKeys, c.traceVals[:2])
}

// traceLifetime emits one request-lifetime event on the owning thread's
// row (tid 0 = reads, 1 = writes), spanning arrival to data burst end.
// slot is the request's arena slot, used to pull its interference
// attribution when the tracker is on.
func (c *Controller) traceLifetime(name string, slot int32, thread, flatBank, row int, arrival, done int64) {
	c.traceVals[0] = int64(flatBank)
	c.traceVals[1] = int64(row)
	c.traceVals[2] = done - arrival
	tid := 0
	if name == "write" {
		tid = 1
	}
	keys, vals := traceLifeKeys, c.traceVals[:3]
	if c.intf != nil {
		top, stolen := c.intf.topAggressor(slot, thread)
		c.traceVals[3] = int64(top)
		c.traceVals[4] = stolen
		keys, vals = traceLifeIntfKeys, c.traceVals[:5]
	}
	c.tw.CompleteArgs(name, tracePidThread+thread, tid, arrival, done-arrival,
		keys, vals)
}
