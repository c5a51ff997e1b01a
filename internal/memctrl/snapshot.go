package memctrl

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/snapshot"
)

func requestState(s *snapshot.Codec, q *core.Request) {
	s.U64(&q.ID)
	s.Int(&q.Thread)
	s.U64(&q.Addr)
	s.Bool(&q.IsWrite)
	s.I64(&q.Arrival)
	s.I64(&q.ArrivalReal)
	s.Int(&q.Rank)
	s.Int(&q.Bank)
	s.Int(&q.Row)
	s.Int(&q.Col)
	s.Int(&q.Channel)
	s.Int(&q.GlobalBank)
	s.I64((*int64)(&q.Key))
	s.Bool(&q.KeyFrozen)
	s.Int(&q.Issued)
}

// bankOrder returns bank b's pending requests in arrival order, the
// merge by ID of its thread queues, built in buf's storage.
func (c *Controller) bankOrder(b int, buf []int32) []int32 {
	buf = buf[:0]
	for _, q := range c.pending[b*c.cfg.Threads : (b+1)*c.cfg.Threads] {
		buf = append(buf, q...)
	}
	slices.SortFunc(buf, func(x, y int32) int { return cmp.Compare(c.arena[x].ID, c.arena[y].ID) })
	return buf
}

// State visits the controller's machine state: its configuration
// (verified, not loaded), DRAM channel timing, each bank's transaction
// queues as one list in arrival order (with full request state,
// including frozen policy keys), in-flight reads awaiting data-burst
// completion, occupancy and refresh bookkeeping, per-thread statistics,
// the policy's virtual-time registers when the policy carries state, and
// the optional auditor and interference tracker. Nothing the scheduler
// derived or counted is on the wire: a restore starts from empty, so the
// first tick examines every bank and rebuilds what the scheduler caches
// to the values it held, and SchedCounts restarts.
//
// Loading rebuilds the arena from scratch: every decoded request gets a
// fresh slot in decode order. Slot numbers are unobservable — queues
// keep their serialized order, ties break on request IDs, and snapshots
// are content-based — so the assignment need not match the saving
// process's. Derived totals (pendingTotal, occupancy sums) are
// recomputed, and the auditor's pending mirror is re-linked to the
// restored live request pointers.
func (c *Controller) State(s *snapshot.Codec) error {
	s.Section("memctrl.Controller")
	snapshot.Verify(s, len(c.chans), "channels", s.Int)
	snapshot.Verify(s, c.cfg.ReadEntriesPerThread, "read entries per thread", s.Int)
	snapshot.Verify(s, c.cfg.WriteEntriesPerThread, "write entries per thread", s.Int)
	snapshot.Verify(s, c.cfg.SharedBuffers, "shared buffers", s.Bool)
	snapshot.Verify(s, uint8(c.cfg.RowPolicy), "row policy", s.U8)
	snapshot.Verify(s, c.cfg.DisableRefresh, "refresh disabled", s.Bool)
	snapshot.Verify(s, c.mapper.Name(), "address mapper", s.Name)
	for _, ch := range c.chans {
		ch.State(s)
	}
	nt, nbanks := c.cfg.Threads, len(c.pending)/c.cfg.Threads

	// Load-side bookkeeping: every live request by ID (which doubles as
	// the duplicate-ID check), and the per-bank pointers the auditor
	// mirrors.
	var reqByID map[uint64]*core.Request
	var audPending [][]*core.Request
	if s.Loading() {
		c.empty()
		reqByID = make(map[uint64]*core.Request)
		audPending = make([][]*core.Request, nbanks)
	}
	// request visits the request in a queue entry's arena slot — the
	// slot the queue holds when saving, a freshly allocated one when
	// loading — and returns it, or nil once the codec has failed.
	request := func(slot *int32) *core.Request {
		if s.Loading() {
			if len(c.freeSlots) == 0 {
				s.Fail("live requests exceed arena capacity %d", len(c.arena))
				return nil
			}
			*slot = c.allocSlot()
		}
		q := &c.arena[*slot]
		requestState(s, q)
		q.Slot = *slot
		if s.Loading() && s.Err() == nil {
			switch {
			case q.Thread < 0 || q.Thread >= len(c.stats):
				s.Fail("request %d thread %d out of range [0,%d)", q.ID, q.Thread, len(c.stats))
			case reqByID[q.ID] != nil:
				s.Fail("duplicate request id %d", q.ID)
			default:
				reqByID[q.ID] = q
			}
		}
		if s.Err() != nil {
			return nil
		}
		return q
	}
	var order []int32 // one bank's requests in arrival order, the wire form
	for b := range nbanks {
		order = c.bankOrder(b, order)
		snapshot.Slice(s, &order, len(c.arena), func(slot *int32) {
			q := request(slot)
			if q == nil || !s.Loading() {
				return
			}
			switch {
			case q.GlobalBank != b:
				s.Fail("request %d queued on bank %d but maps to bank %d", q.ID, b, q.GlobalBank)
			case q.Channel < 0 || q.Channel >= len(c.chans):
				s.Fail("request %d channel %d out of range [0,%d)", q.ID, q.Channel, len(c.chans))
			}
			audPending[b] = append(audPending[b], q)
			c.pending[b*nt+q.Thread] = append(c.pending[b*nt+q.Thread], *slot)
			c.pendingTotal++
		})
	}
	s.Ints(c.readOcc)
	s.Ints(c.writeOcc)
	for ch := range c.inflight {
		// Only the live (unconsumed) region, as for the cache queues.
		live := c.inflight[ch][c.inflightHead[ch]:]
		snapshot.Slice(s, &live, len(c.arena), func(f *inflightRead) {
			request(&f.slot)
			s.I64(&f.doneAt)
		})
		if s.Loading() {
			c.inflight[ch], c.inflightHead[ch] = live, 0
		}
	}
	s.U64(&c.nextID)
	s.I64(&c.vclock)
	s.Bools(c.refreshWanted)
	s.I64s(c.nextRefreshAt)
	for i := range c.stats {
		st := &c.stats[i]
		s.I64(&st.ReadsAccepted)
		s.I64(&st.WritesAccepted)
		s.I64(&st.ReadsDone)
		s.I64(&st.WritesDone)
		s.I64(&st.ReadLatencySum)
		s.I64(&st.DataBusCycles)
		s.I64(&st.RowHits)
		s.I64(&st.RowConflicts)
		s.I64(&st.RowClosed)
		st.LatHist.State(s)
	}
	for i := range c.cmdCount {
		s.I64(&c.cmdCount[i])
	}
	ps, hasPolicy := c.policy.(core.PolicyState)
	snapshot.Verify(s, hasPolicy, "policy-state flag", s.Bool)
	if hasPolicy {
		// The policy name guards against cross-policy restores: two
		// policies can share a state section with identical geometry
		// (the vftBase family does), so the section marker alone cannot
		// tell a FR-VFTF snapshot from a FR-VSTF one.
		snapshot.Verify(s, c.policy.Name(), "policy state", s.Name)
		ps.State(s)
	}
	if s.Loading() {
		c.readOccTotal, c.writeOccTotal = 0, 0
		for t := range c.readOcc {
			c.readOccTotal += c.readOcc[t]
			c.writeOccTotal += c.writeOcc[t]
		}
	}
	snapshot.Verify(s, c.aud != nil, "auditor flag", s.Bool)
	if c.aud != nil {
		c.aud.State(s, reqByID, audPending)
	}
	snapshot.Verify(s, c.intf != nil, "interference flag", s.Bool)
	if c.intf != nil {
		c.intf.state(s, c)
	}
	return s.End()
}

// State visits the fairness monitor: the previous-boundary cumulative
// service the next epoch differences against, the running shortfall
// aggregates, and the retained sample ring oldest-first, each record
// as its FairnessSample columns (the decoder demands one entry per
// thread in every column). Interval and capacity are construction
// state (sim's fingerprint has the interval).
func (m *FairnessMonitor) State(s *snapshot.Codec) error {
	s.Section("memctrl.FairnessMonitor")
	s.I64(&m.nextAt)
	s.I64s(m.prevService)
	s.F64s(m.cumShort)
	s.F64s(m.maxEpochShrt)
	s.F64s(m.maxAbsExcess)
	s.I64s(m.lastExcess)
	s.I64s(m.prevMatrix)
	n := len(m.prevService)
	m.mu.Lock()
	defer m.mu.Unlock()
	snapshot.Ring(s, &m.ring, m.capacity, &m.start, func(r *fairRecord) {
		var sm FairnessSample
		if !s.Loading() {
			sm = r.expand()
		}
		s.I64(&sm.Epoch)
		s.I64(&sm.Cycle)
		snapshot.Slice(s, &sm.Service, n, s.I64)
		s.I64(&sm.Total)
		snapshot.Slice(s, &sm.Share, n, s.F64)
		snapshot.Slice(s, &sm.Phi, n, s.F64)
		snapshot.Slice(s, &sm.Excess, n, s.F64)
		snapshot.Slice(s, &sm.Backlogged, n, s.Bool)
		snapshot.Slice(s, &sm.CumShortfall, n, s.F64)
		snapshot.Slice(s, &sm.TopAggressor, n, s.Int)
		snapshot.Slice(s, &sm.StolenCycles, n, s.I64)
		if !s.Loading() || s.Err() != nil {
			return
		}
		for _, col := range []int{len(sm.Service), len(sm.Share), len(sm.Phi), len(sm.Excess),
			len(sm.Backlogged), len(sm.CumShortfall), len(sm.TopAggressor), len(sm.StolenCycles)} {
			if col != n {
				s.Fail("epoch %d has a %d-entry column for %d threads", sm.Epoch, col, n)
				return
			}
		}
		*r = fairRecord{epoch: sm.Epoch, cycle: sm.Cycle, total: sm.Total, th: make([]fairThread, n)}
		for t := range r.th {
			r.th[t] = fairThread{
				service: sm.Service[t], share: sm.Share[t], phi: sm.Phi[t], excess: sm.Excess[t],
				cumShortfall: sm.CumShortfall[t], stolen: sm.StolenCycles[t],
				top: sm.TopAggressor[t], backlogged: sm.Backlogged[t],
			}
		}
	})
	s.I64(&m.epochs)
	return s.End()
}
