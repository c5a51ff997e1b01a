package core

import "repro/internal/snapshot"

// PolicyState is implemented by policies with mutable internal state
// (the VTMS-register family and the interval policies). Checkpointing
// asserts the capability at run time: stateless policies (FCFS,
// FR-FCFS) simply do not implement it and have nothing to visit.
type PolicyState interface {
	State(s *snapshot.Codec) error
}

var (
	_ PolicyState = (*FRVFTF)(nil)
	_ PolicyState = (*FQVFTF)(nil)
	_ PolicyState = (*FRVSTF)(nil)
	_ PolicyState = (*BLISS)(nil)
	_ PolicyState = (*SlowFair)(nil)
	_ PolicyState = (*BankBW)(nil)
)

// State visits the thread's virtual-time registers and its current
// share (shares can be reassigned at run time, so the construction-time
// value is not enough). invPhi is recomputed from the restored share
// rather than trusted from the stream.
func (v *VTMS) State(s *snapshot.Codec) error {
	s.Section("core.VTMS")
	s.Int(&v.share.Num)
	s.Int(&v.share.Den)
	vtime := func(t *VTime) { s.I64((*int64)(t)) }
	snapshot.Fixed(s, v.bankR, vtime)
	snapshot.Fixed(s, v.chanR, vtime)
	if s.Loading() && s.Err() == nil {
		if v.share.Valid() {
			v.invPhi = v.share.Reciprocal()
		} else {
			s.Fail("invalid share %d/%d", v.share.Num, v.share.Den)
		}
	}
	return s.End()
}

// state visits the shared window bookkeeping of the interval-based
// arena policies, inside the owning policy's section. The interval
// itself is construction state.
func (tk *ticker) state(s *snapshot.Codec) {
	snapshot.Verify(s, tk.interval, "tick interval", s.I64)
	s.I64(&tk.lastTick)
	s.I64(&tk.nextTick)
	if s.Loading() && s.Err() == nil && (tk.nextTick <= tk.lastTick || tk.nextTick-tk.lastTick > tk.interval) {
		s.Fail("inconsistent tick window [%d, %d] for interval %d", tk.lastTick, tk.nextTick, tk.interval)
	}
}

// State visits the blacklist, the staged marks, and the streak
// tracker. The thresholds are construction state.
func (p *BLISS) State(s *snapshot.Codec) error {
	s.Section("core.BLISS")
	p.ticker.state(s)
	s.I64(&p.ticks)
	s.Int(&p.lastThread)
	s.I64(&p.streak)
	s.Bools(p.blacklisted)
	s.Bools(p.pendingMark)
	return s.End()
}

// State visits the boost target and the per-thread alone-time accounts.
func (p *SlowFair) State(s *snapshot.Codec) error {
	s.Section("core.SlowFair")
	p.ticker.state(s)
	s.Int(&p.boosted)
	s.I64s(p.aloneServ)
	s.I64s(p.prevAlone)
	if s.Loading() && s.Err() == nil && (p.boosted < -1 || p.boosted >= len(p.aloneServ)) {
		s.Fail("boosted thread %d out of range", p.boosted)
	}
	return s.End()
}

// State visits the per-(thread, bank) budgets. The quota and geometry
// are construction state.
func (p *BankBW) State(s *snapshot.Codec) error {
	s.Section("core.BankBW")
	p.ticker.state(s)
	snapshot.Verify(s, p.quota, "quota", s.I64)
	s.I64s(p.budget)
	return s.End()
}

// State visits every thread's VTMS registers. The FQ inversion bound x
// is construction state, not mutable state, so it is not written.
func (b *vftBase) State(s *snapshot.Codec) error {
	s.Section("core.vftBase")
	snapshot.Verify(s, len(b.vtms), "threads", s.Int)
	for _, v := range b.vtms {
		v.State(s)
	}
	return s.End()
}
