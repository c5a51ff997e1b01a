package dram

import "repro/internal/snapshot"

// State visits the channel's timing state: every bank's row status,
// last-command timestamps, and command/busy counters, plus the
// channel-global CAS/bus/refresh bookkeeping. Timing and geometry are
// verified, not loaded.
func (c *Channel) State(s *snapshot.Codec) error {
	s.Section("dram.Channel")
	snapshot.Verify(s, c.cfg, "timing and geometry", func(g *Config) {
		t := &g.Timing
		for _, v := range []*int{&t.TRCD, &t.TCL, &t.TWL, &t.TCCD, &t.TWTR, &t.TWR, &t.TRTP,
			&t.TRP, &t.TRRD, &t.TRAS, &t.TRC, &t.BL2, &t.TRFC, &t.TREF,
			&g.Ranks, &g.BanksPerRank, &g.RowsPerBank, &g.ColsPerRow} {
			s.Int(v)
		}
	})
	for i := range c.banks {
		b := &c.banks[i]
		s.Bool(&b.open)
		s.Int(&b.row)
		s.I64(&b.lastActivate)
		s.I64(&b.lastRead)
		s.I64(&b.lastWrite)
		s.I64(&b.lastPrecharge)
		s.I64(&b.writeDataEnd)
		s.I64(&b.busyCycles)
		s.I64(&b.activates)
		s.I64(&b.precharges)
		s.I64(&b.reads)
		s.I64(&b.writes)
		s.Int(&b.actThread)
		s.Int(&b.readThread)
		s.Int(&b.writeThread)
		s.Int(&b.preThread)
	}
	s.I64s(c.rankLastActivate)
	for i := range c.rankLastActThread {
		s.Int(&c.rankLastActThread[i])
	}
	s.I64(&c.lastCAS)
	s.I64(&c.lastWriteData)
	s.I64(&c.dataBusFreeAt)
	s.I64(&c.dataBusBusy)
	s.I64(&c.refreshUntil)
	s.I64(&c.refreshedCount)
	s.Int(&c.lastCASThread)
	s.Int(&c.lastWriteDataThread)
	s.Int(&c.dataBusThread)
	return s.End()
}
