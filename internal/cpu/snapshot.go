package cpu

import (
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// State visits the core: cache hierarchy, the instruction generator's
// cursor, ROB ring and wake lists, load issue queue, store buffer, MSHR
// token waiters, I-fetch latches, and retirement counters. It fails for
// any instruction source but the synthetic generator: another Source
// has no serializable cursor. The configuration is verified; the
// generator must run the same workload.
func (c *Core) State(s *snapshot.Codec) error {
	s.Section("cpu.Core")
	snapshot.Verify(s, c.cfg, "configuration", func(g *Config) {
		for _, v := range []*int{&g.ROB, &g.DispatchWidth, &g.RetireWidth, &g.LoadQueue,
			&g.StoreBuffer, &g.LoadsPerCycle, &g.StoresPerCycle, &g.IFetchEvery} {
			s.Int(v)
		}
	})
	c.hier.State(s)
	if g, ok := c.gen.(*trace.Generator); ok {
		g.State(s)
	} else {
		s.Fail("unserializable instruction source %T", c.gen)
	}
	robN := len(c.rob)
	// robSlot visits a ROB index and rejects one a restored core would
	// fault on; lo is -1 where nilIdx is a legal value.
	robSlot := func(lo int32) func(*int32) {
		return func(v *int32) {
			s.I32(v)
			if s.Loading() && s.Err() == nil && (*v < lo || int(*v) >= robN) {
				s.Fail("ROB slot %d out of range", *v)
			}
		}
	}
	link, slot := robSlot(nilIdx), robSlot(0)
	for i := range c.rob {
		e := &c.rob[i]
		s.U8((*uint8)(&e.kind))
		s.U64(&e.addr)
		s.I32(&e.lat)
		s.I64(&e.completeAt)
		link(&e.wakeHead)
		link(&e.wakeNext)
		s.Bool(&e.inIssueQ)
	}
	slot(&c.head)
	s.I32(&c.count)
	snapshot.Slice(s, &c.issueQ, robN, slot)
	snapshot.Slice(s, &c.issueRdy, robN, s.I64)
	snapshot.Slice(s, &c.issueNACK, robN, s.Bool)
	s.Int(&c.inFlight)
	snapshot.Slice(s, &c.storeBuf, c.cfg.StoreBuffer, s.U64)
	s.Bool(&c.storeNACK)
	// MSHR tokens index tokenWaiters, which starts at a fixed size and
	// grows to the hierarchy's MSHR count on demand.
	snapshot.Slice(s, &c.tokenWaiters, max(len(c.tokenWaiters), c.hier.MSHRs()), func(ws *[]int32) {
		snapshot.Slice(s, ws, robN, slot)
	})
	s.Int(&c.tokenStall)
	s.Bool(&c.ifetchNACK)
	s.Bool(&c.ifetchRetry)
	s.U64(&c.ifetchLine)
	s.Int(&c.sinceIFetch)
	s.I64(&c.Retired)
	s.I64(&c.LoadsRetired)
	s.I64(&c.StoresRetired)
	s.I64(&c.StallCycles)
	if s.Loading() && s.Err() == nil {
		switch {
		case c.count < 0 || int(c.count) > robN:
			s.Fail("count %d outside ROB of %d", c.count, robN)
		case len(c.issueRdy) != len(c.issueQ) || len(c.issueNACK) != len(c.issueQ):
			s.Fail("issue queue arrays disagree (%d/%d/%d)", len(c.issueQ), len(c.issueRdy), len(c.issueNACK))
		case c.tokenStall < -1 || c.tokenStall >= len(c.tokenWaiters):
			s.Fail("tokenStall %d out of range", c.tokenStall)
		}
		c.parked = 0
		for i, nack := range c.issueNACK {
			if s.Err() != nil {
				break
			}
			if !nack {
				continue
			}
			c.parked++
			// The parked-load invariant (issueLoads): a parked load whose
			// line is reachable would sleep through its own fill.
			idx := c.issueQ[i]
			addr := c.rob[idx].addr
			if _, out := c.hier.TokenFor(addr); out {
				s.Fail("ROB slot %d parked on line %#x, which has an MSHR outstanding", idx, addr)
			} else if c.hier.L1D().Lookup(addr) || c.hier.L2().Lookup(addr) {
				s.Fail("ROB slot %d parked on line %#x, which is cached", idx, addr)
			}
		}
	}
	return s.End()
}
