package audit

import (
	"repro/internal/core"
	"repro/internal/snapshot"
)

// maxHistWhat caps decoded history-entry labels (they are short
// command mnemonics like "ACT" or "accept").
const maxHistWhat = 64

// State visits the auditor: the shadow device model, the
// conservation/starvation ledgers, the frozen-key map, and the command
// history ring. The pending mirror is not written — it aliases the
// controller's live request pointers and is rebuilt on load from
// pending, the controller's restored per-bank queues; reqByID maps
// every live request (pending or in flight) by ID so the outstanding
// ledger can re-link its pointers. Both are consulted only when
// loading. preBankR/preChanR are transient within a single command
// issue and checkpoints land between cycles, so they are not written
// either.
func (a *Auditor) State(s *snapshot.Codec, reqByID map[uint64]*core.Request, pending [][]*core.Request) error {
	s.Section("audit.Auditor")
	for i := range a.banks {
		b := &a.banks[i]
		s.Bool(&b.open)
		s.Int(&b.row)
		s.I64(&b.lastAct)
		s.I64(&b.lastRead)
		s.I64(&b.lastWrite)
		s.I64(&b.lastPre)
		s.I64(&b.writeEnd)
	}
	for i := range a.chans {
		sc := &a.chans[i]
		s.I64(&sc.lastCAS)
		s.I64(&sc.lastWriteEnd)
		s.I64(&sc.busFreeAt)
		s.I64(&sc.refreshUntil)
		s.I64(&sc.lastRefresh)
		s.I64(&sc.lastCmd)
		s.I64s(sc.rankLastAct)
		for j := range sc.rankActHist {
			for k := range sc.rankActHist[j] {
				s.I64(&sc.rankActHist[j][k])
			}
		}
		s.Ints(sc.rankActN)
	}
	s.U64(&a.lastID)
	s.I64(&a.lastArrival)

	// Outstanding-request ledger, in FIFO order, as (id, done) pairs;
	// the request pointer of a live entry is re-linked by ID on load.
	// Completed entries linger until the head reaches them, so the
	// length is bounded by run history, not by buffer capacity — but
	// every entry still outstanding must be one of the restored
	// requests, which bounds those.
	capacity := a.tgt.Threads * (a.tgt.ReadEntries + a.tgt.WriteEntries)
	if s.Loading() {
		a.out = make(map[uint64]*outReq)
	}
	live := a.fifo[a.head:]
	snapshot.Slice(s, &live, snapshot.MaxSlice, func(id *uint64) {
		var done bool
		if !s.Loading() {
			e := a.out[*id]
			done = e == nil || e.done
		}
		s.U64(id)
		s.Bool(&done)
		if !s.Loading() || s.Err() != nil {
			return
		}
		req := reqByID[*id]
		switch {
		case a.out[*id] != nil:
			s.Fail("duplicate outstanding id %d", *id)
		case !done && req == nil:
			s.Fail("outstanding request %d not in any restored queue", *id)
		default:
			a.out[*id] = &outReq{r: req, done: done}
		}
	})
	if s.Loading() {
		a.fifo, a.head = live, 0
	}
	for i := range a.acc {
		t := &a.acc[i]
		s.I64(&t.readsAcc)
		s.I64(&t.readsDone)
		s.I64(&t.writesAcc)
		s.I64(&t.writesDone)
	}
	// A key is frozen from a request's first command to its CAS, so the
	// map never outgrows the controller's buffers.
	snapshot.Map(s, &a.frozen, capacity, s.U64, s.I64)

	// Command history, oldest-first so the restored ring re-serializes
	// identically regardless of where the original wrap point was.
	snapshot.Verify(s, len(a.hist), "history capacity", s.Int)
	s.Int(&a.histLen)
	if s.Loading() && s.Err() == nil {
		if a.histLen < 0 || a.histLen > len(a.hist) {
			s.Fail("history length %d exceeds capacity %d", a.histLen, len(a.hist))
			return s.End()
		}
		a.histNext = 0
		if len(a.hist) > 0 {
			a.histNext = a.histLen % len(a.hist)
		}
	}
	for i := 0; i < a.histLen && s.Err() == nil; i++ {
		e := &a.hist[(a.histNext-a.histLen+i+2*len(a.hist))%len(a.hist)]
		s.I64(&e.cycle)
		s.String(&e.what, maxHistWhat)
		s.Int(&e.bank)
		s.Int(&e.row)
		s.Int(&e.thread)
		s.U64(&e.id)
		s.I64(&e.key)
	}
	s.I64(&a.cmds)
	s.I64(&a.maxInvWindow)
	// Interval-policy tracking. Present exactly when the audited policy
	// provides the corresponding contract surface; the restore side
	// derives presence from the same policy (the controller refuses
	// cross-policy restores), so the layouts always agree.
	if a.bliss != nil {
		s.Bools(a.blShadow)
	}
	if a.slow != nil {
		s.Int(&a.boostShadow)
		if s.Loading() && s.Err() == nil && (a.boostShadow < -1 || a.boostShadow >= len(a.acc)) {
			s.Fail("boost shadow %d out of range for %d threads", a.boostShadow, len(a.acc))
		}
	}
	if a.budget != nil {
		s.I64(&a.winStart)
		s.I64s(a.casCount)
	}
	if !s.Loading() || s.Err() != nil {
		return s.End()
	}
	a.preBankR, a.preChanR = 0, 0
	// The pending mirror must alias the controller's live pointers:
	// the auditor's minimum-key and membership checks compare by
	// pointer identity.
	if len(pending) != len(a.pend) {
		s.Fail("%d pending banks, auditor has %d", len(pending), len(a.pend))
		return s.End()
	}
	for i := range a.pend {
		a.pend[i] = append(a.pend[i][:0], pending[i]...)
	}
	return s.End()
}
