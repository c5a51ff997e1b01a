package memctrl

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metrics"
)

// memMetrics is the observer holding the controller's metric handles
// (attached when Config.Metrics is set). No metric ever feeds back into
// scheduling, so an instrumented run is bit-identical to a bare one.
type memMetrics struct {
	nopObserver
	c *Controller

	// Service-start classification per core.BankState and flat bank (the
	// per-bank counterpart of ThreadStats.RowHits/RowConflicts/RowClosed).
	bankRow [3][]*metrics.Counter

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
// hot-path handles. Counts of the simulator's own work (SchedCounts, a
// refused Accept per stepped cycle) are not simulated state and stay
// out, so a series does not depend on how the run was stepped.
func newMemMetrics(reg *metrics.Registry, c *Controller) *memMetrics {
	m := &memMetrics{
		c:               c,
		readOcc:         make([]*metrics.Histogram, c.cfg.Threads),
		writeOcc:        make([]*metrics.Histogram, c.cfg.Threads),
		vclockLag:       reg.Gauge("memctrl.vclock_lag"),
		refreshLag:      reg.Histogram("memctrl.refresh_lag"),
		inversions:      reg.Counter("memctrl.fq.inversions"),
		inversionWindow: reg.Histogram("memctrl.fq.inversion_window"),
	}
	rowNames := [3]string{core.BankHit: "hits", core.BankConflict: "conflicts", core.BankClosed: "closed"}
	for b := range c.bankWake {
		for _, st := range [3]core.BankState{core.BankHit, core.BankConflict, core.BankClosed} {
			m.bankRow[st] = append(m.bankRow[st], reg.Counter(fmt.Sprintf("memctrl.bank%d.row_%s", b, rowNames[st])))
		}
	}
	for t := 0; t < c.cfg.Threads; t++ {
		m.readOcc[t] = reg.Histogram(fmt.Sprintf("memctrl.thread%d.read_occupancy", t))
		m.writeOcc[t] = reg.Histogram(fmt.Sprintf("memctrl.thread%d.write_occupancy", t))
		st := &c.stats[t]
		reg.Func(fmt.Sprintf("memctrl.thread%d.reads_done", t), func() int64 { return st.ReadsDone })
		reg.Func(fmt.Sprintf("memctrl.thread%d.writes_done", t), func() int64 { return st.WritesDone })
		reg.Func(fmt.Sprintf("memctrl.thread%d.data_bus_cycles", t), func() int64 { return st.DataBusCycles })
	}
	for k := dram.KindActivate; k <= dram.KindRefresh; k++ {
		k := k
		reg.Func("memctrl.cmd."+k.String(), func() int64 { return c.cmdCount[k] })
	}
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

func (m *memMetrics) OnAccept(r *core.Request, _ int64) {
	if r.IsWrite {
		m.writeOcc[r.Thread].Observe(int64(m.c.writeOcc[r.Thread]))
	} else {
		m.readOcc[r.Thread].Observe(int64(m.c.readOcc[r.Thread]))
	}
}

// OnTick: cycles [0, now] minus vclock = cycles the virtual clock has
// paused for refresh so far.
func (m *memMetrics) OnTick(now int64) { m.vclockLag.Set(now + 1 - m.c.vclock) }

func (m *memMetrics) OnRefresh(_ int, now int64) { m.refreshLag.Observe(now + 1 - m.c.vclock) }

func (m *memMetrics) BeforeIssue(cmd audit.Cmd, now int64) {
	if cmd.Inverted {
		// FQ priority-inversion accounting: this CAS wins while a
		// same-bank request with a strictly smaller policy key waits
		// (the first-ready window of RuleFQ). The window length is how
		// long the bank's current row has been favored.
		ch, lb := m.c.chanOf(cmd.FlatBank)
		m.inversions.Inc()
		m.inversionWindow.Observe(now - ch.LastActivate(lb))
	}
	if cmd.First {
		m.bankRow[cmd.State][cmd.FlatBank].Inc()
	}
}

// Trace-event process ids: one process row per channel (banks are its
// thread rows, plus one refresh row), one per hardware thread (request
// lifetimes).
const (
	tracePidChannel = 10  // + channel index
	tracePidThread  = 100 // + thread index
)

// tracer is the observer streaming the Chrome trace-event timeline
// (attached when Config.Trace is set): one event per SDRAM command on
// the owning bank's row and one per request lifetime on the owning
// thread's row.
type tracer struct {
	nopObserver
	tw   *metrics.TraceWriter
	c    *Controller
	vals [5]int64 // event arg scratch, so emission does not allocate
}

// newTracer emits the metadata events naming the trace's rows.
func newTracer(tw *metrics.TraceWriter, c *Controller) *tracer {
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
	return &tracer{tw: tw, c: c}
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

// Static key sets for trace events, kept package-level so event
// emission does not allocate.
var (
	traceCmdKeys  = []string{"thread", "row"}
	traceLifeKeys = []string{"bank", "row", "latency"}
	// With interference attribution on, lifetime slices also carry the
	// other thread charged the most of this request's wait and that
	// charge (-1/0 when nothing was attributed to another thread).
	traceLifeIntfKeys = []string{"bank", "row", "latency", "top_aggressor", "stolen_cycles"}
)

func (t *tracer) OnRefresh(chIdx int, now int64) {
	t.tw.Complete("REF", tracePidChannel+chIdx, t.c.banksPerChan, now, t.c.cmdDuration(dram.KindRefresh))
}

// AfterIssue emits the command and, for a write (which retires at its
// CAS), the request's lifetime.
func (t *tracer) AfterIssue(cmd audit.Cmd, now int64) {
	pid := tracePidChannel + cmd.FlatBank/t.c.banksPerChan
	tid := cmd.FlatBank % t.c.banksPerChan
	r := cmd.Req
	if r == nil {
		t.tw.Complete(cmd.Kind.String(), pid, tid, now, t.c.cmdDuration(cmd.Kind))
		return
	}
	t.vals[0] = int64(r.Thread)
	t.vals[1] = int64(r.Row)
	t.tw.CompleteArgs(cmd.Kind.String(), pid, tid, now, t.c.cmdDuration(cmd.Kind),
		traceCmdKeys, t.vals[:2])
	if cmd.Kind == dram.KindWrite {
		t.lifetime("write", 1, r, cmd.DataEnd)
	}
}

func (t *tracer) OnReadDone(r *core.Request, doneAt, _ int64) { t.lifetime("read", 0, r, doneAt) }

// lifetime emits one request-lifetime event on the owning thread's row
// (tid 0 = reads, 1 = writes), spanning arrival to data burst end.
func (t *tracer) lifetime(name string, tid int, r *core.Request, done int64) {
	t.vals[0] = int64(r.GlobalBank)
	t.vals[1] = int64(r.Row)
	t.vals[2] = done - r.ArrivalReal
	keys, vals := traceLifeKeys, t.vals[:3]
	if intf := t.c.intf; intf != nil {
		top, stolen := intf.topAggressor(r.Slot, r.Thread)
		t.vals[3] = int64(top)
		t.vals[4] = stolen
		keys, vals = traceLifeIntfKeys, t.vals[:5]
	}
	t.tw.CompleteArgs(name, tracePidThread+r.Thread, tid, r.ArrivalReal, done-r.ArrivalReal,
		keys, vals)
}
