package memctrl

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// refTracker is the per-request attribution walk that group charging
// replaced, kept as the tracker's oracle: at every command and refresh
// it charges every waiting request of the channel on its own, by the
// rule in interference.go. Its accounting is keyed by request ID, which
// a checkpoint keeps (slots it renumbers), so it runs on across a
// restore without the checkpoint's help.
type refTracker struct {
	c       *Controller
	threads int
	aggrs   int
	slots   map[uint64]*refSlot
	cube    []int64
}

// refSlot is one waiting or in-flight request's accounting.
type refSlot struct {
	from, total int64
	by          []int64 // per aggressor
}

func newRefTracker(c *Controller) *refTracker {
	n := c.cfg.Threads
	return &refTracker{c: c, threads: n, aggrs: n + 1, slots: map[uint64]*refSlot{},
		cube: make([]int64, n*(n+1)*numCauses)}
}

func (t *refTracker) charge(r *core.Request, aggr, cause int, cycles int64) {
	s := t.slots[r.ID]
	s.total += cycles
	s.by[aggr] += cycles
	t.cube[(r.Thread*t.aggrs+aggr)*numCauses+cause] += cycles
}

func (t *refTracker) onAccept(r *core.Request, now int64) {
	t.slots[r.ID] = &refSlot{from: now, by: make([]int64, t.aggrs)}
	if t.c.tickedAt != now {
		return
	}
	ch, lb := t.c.chanOf(r.GlobalBank)
	openRow, open := ch.BankOpen(lb)
	cls, _ := classOf(r, open, openRow)
	switch {
	case now+1 >= t.c.nextRefreshAt[r.Channel] && ch.EarliestIssue(dram.KindRefresh, 0) <= now+1:
		t.charge(r, t.threads, causeRefresh, 1)
	case ch.EarliestIssue(classKind(cls, open), lb) <= now:
		t.charge(r, t.threads, causePolicy, 1)
	default:
		return
	}
	t.slots[r.ID].from = now + 1
}

// settle walks every waiting request of the channel; own is the
// command's request (nil at a refresh or an idle-close precharge).
func (t *refTracker) settle(chIdx int, now int64, refresh bool, own *core.Request, winner int) {
	c := t.c
	ch := c.chans[chIdx]
	legal := now
	if refresh {
		legal = now - 1
	}
	pendingFrom := min(c.nextRefreshAt[chIdx], now)
	none, nt := t.threads, t.threads
	lo := chIdx * c.banksPerChan
	for b := lo; b < lo+c.banksPerChan; b++ {
		lb := b - lo
		openRow, open := ch.BankOpen(lb)
		holder := none
		if th := ch.ActivateThread(lb); open && th >= 0 {
			holder = th
		}
		for v, q := range c.pending[b*nt : (b+1)*nt] {
			for _, slot := range q {
				r := &c.arena[slot]
				cls, _ := classOf(r, open, openRow)
				kind := classKind(cls, open)
				e := ch.EarliestIssue(kind, lb)
				if e > legal {
					continue
				}
				f := t.slots[r.ID].from
				if f < e {
					_, bc, th := ch.BlockingCause(kind, lb)
					cause, aggr := classify(none, v, bc, th)
					t.charge(r, aggr, cause, e-f)
					f = e
				}
				if held := max(pendingFrom, f); held > f {
					t.charge(r, holder, causePolicy, held-f)
					f = held
				}
				if f < now {
					t.charge(r, none, causeRefresh, now-f)
				}
				next := now
				if !refresh && r != own {
					t.charge(r, winner, causePolicy, 1)
					next++
				}
				t.slots[r.ID].from = next
			}
		}
	}
}

// attrOracle runs refTracker beside the controller's own tracker and
// compares them: the cube and the registry's attribution counters after
// every event, and a request's total and aggressor row at its CAS and
// at its read's completion. It records the first difference.
type attrOracle struct {
	ref     *refTracker
	reg     *metrics.Registry
	diff    string
	checked int // requests compared
}

func (o *attrOracle) fail(format string, args ...any) {
	if o.diff == "" {
		o.diff = fmt.Sprintf(format, args...)
	}
}

// checkCube compares the cubes and the counters mirroring them.
func (o *attrOracle) checkCube(event string, now int64) {
	t := o.ref.c.intf
	if !slices.Equal(t.cube, o.ref.cube) {
		o.fail("cycle %d, %s: cube %v, per-request walk %v", now, event, t.cube, o.ref.cube)
		return
	}
	if t.pairCtr == nil {
		return
	}
	var causes [numCauses]int64
	for pair, ctr := range t.pairCtr {
		var sum int64
		for cause, x := range o.ref.cube[pair*numCauses : (pair+1)*numCauses] {
			sum += x
			causes[cause] += x
		}
		if ctr.Value() != sum {
			o.fail("cycle %d, %s: pair counter %d holds %d, per-request walk %d", now, event, pair, ctr.Value(), sum)
		}
	}
	for cause, ctr := range t.causeCtr {
		if ctr.Value() != causes[cause] {
			o.fail("cycle %d, %s: cause counter %s holds %d, per-request walk %d", now, event, causeNames[cause], ctr.Value(), causes[cause])
		}
	}
}

// checkSlot compares one request's accounting.
func (o *attrOracle) checkSlot(r *core.Request, event string, now int64) {
	t := o.ref.c.intf
	want := o.ref.slots[r.ID]
	o.checked++
	if got := t.attr[r.Slot].total; got != want.total || !slices.Equal(t.row(r.Slot), want.by) {
		o.fail("cycle %d, %s of request %d: total %d by %v, per-request walk %d by %v",
			now, event, r.ID, got, t.row(r.Slot), want.total, want.by)
	}
}

func (o *attrOracle) OnAccept(r *core.Request, now int64) {
	o.ref.onAccept(r, now)
	o.checkCube("accept", now)
}

func (o *attrOracle) OnTick(int64) {}

func (o *attrOracle) OnRefresh(chIdx int, now int64) {
	o.ref.settle(chIdx, now, true, nil, o.ref.threads)
	o.checkCube("refresh", now)
}

func (o *attrOracle) BeforeIssue(cmd audit.Cmd, now int64) {
	winner := o.ref.threads
	if cmd.Req != nil {
		winner = cmd.Req.Thread
	}
	o.ref.settle(cmd.FlatBank/o.ref.c.banksPerChan, now, false, cmd.Req, winner)
	o.checkCube(cmd.Kind.String(), now)
}

func (o *attrOracle) AfterIssue(cmd audit.Cmd, now int64) {
	o.checkCube("after "+cmd.Kind.String(), now)
	if r := cmd.Req; r != nil && cmd.Kind.IsCAS() {
		o.checkSlot(r, cmd.Kind.String(), now)
		if cmd.Kind == dram.KindWrite {
			delete(o.ref.slots, r.ID)
		}
	}
}

func (o *attrOracle) OnReadDone(r *core.Request, _, now int64) {
	o.checkSlot(r, "read done", now)
	delete(o.ref.slots, r.ID)
}

// attrMachine is one random machine for attributionRun.
type attrMachine struct {
	seed        uint64
	threads     int // 2 to 4
	channels    int // 1 or 2
	policy      int // index into selectionPolicies
	openRow     bool
	tref        int
	eventDriven bool
	cut         int64 // cycle of the checkpoint/restore cut, or 0 for none
	cycles      int64
}

func (m attrMachine) String() string {
	return fmt.Sprintf("%s, %d threads, %d channels, open row %v, tREF %d, event-driven %v, cut at %d, seed %d",
		selectionPolicies[m.policy].name, m.threads, m.channels, m.openRow, m.tref, m.eventDriven, m.cut, m.seed)
}

// attributionRun drives a controller with attribution and a registry
// through random traffic (accepted before or after the cycle's tick, as
// a core's requests are) with a share change every 2,000 cycles and a
// checkpoint/restore cut, the oracle listening, and returns the first
// difference ("" if none) and the number of request comparisons.
func attributionRun(t *testing.T, m attrMachine) (diff string, checked int) {
	t.Helper()
	cfg := DefaultConfig(m.threads)
	cfg.Channels = m.channels
	if m.openRow {
		cfg.RowPolicy = OpenRow
	}
	cfg.DRAM.Timing.TREF = m.tref
	cfg.Interference = true
	sp := selectionPolicies[m.policy]
	build := func() (*Controller, *attrOracle) {
		cfg.Metrics = metrics.New()
		c, err := New(cfg, sp.mk(selectionShares(m.threads), cfg.TotalBanks()))
		if err != nil {
			t.Fatal(err)
		}
		c.SetEventDriven(m.eventDriven)
		c.OnReadDone = func(*core.Request, int64) {}
		o := &attrOracle{ref: newRefTracker(c), reg: cfg.Metrics}
		c.obs = append(c.obs, o)
		return c, o
	}
	c, o := build()
	seed := m.seed
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	accept := func(now int64) {
		x := next()
		c.Accept(int(x>>20%uint64(m.threads)), (x>>8)%200_000, x%5 == 0, now)
	}
	for now := int64(0); now < m.cycles && o.diff == ""; now++ {
		if now == m.cut && now > 0 {
			var buf bytes.Buffer
			w := snapshot.NewEncoder(&buf)
			c.State(w)
			o.reg.State(w)
			if err := w.Flush(); err != nil {
				t.Fatalf("%v: save at %d: %v", m, now, err)
			}
			ref, done := o.ref, o.checked
			c, o = build()
			o.checked = done
			ref.c = c
			o.ref = ref
			r, err := snapshot.NewDecoder(&buf)
			if err == nil {
				c.State(r)
				o.reg.State(r)
				c.VerifyRestoreCycle(r, now)
				err = r.Err()
			}
			if err != nil {
				t.Fatalf("%v: restore at %d: %v", m, now, err)
			}
		}
		if x := next(); x%3 == 0 {
			accept(now)
		}
		if now%2_000 == 1_000 {
			c.SetShare(int(now/2_000)%m.threads, core.Share{Num: 1, Den: 3})
		}
		c.Tick(now)
		if x := next(); x%4 == 0 {
			accept(now) // after the tick, as sim accepts
		}
	}
	return o.diff, o.checked
}

// FuzzAttribution holds the tracker's group charging to the per-request
// walk on random small machines: two to four threads, one or two
// channels, either row policy, a short refresh interval, any policy,
// either stepping mode, share changes and a checkpoint/restore cut.
func FuzzAttribution(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(3), false, uint16(1_000), true, uint16(2_500))
	f.Fuzz(func(t *testing.T, seed uint64, threads, channels, policy uint8, openRow bool, tref uint16, eventDriven bool, cut uint16) {
		m := attrMachine{
			seed:        seed,
			threads:     2 + int(threads%3),
			channels:    1 + int(channels%2),
			policy:      int(policy) % len(selectionPolicies),
			openRow:     openRow,
			tref:        600 + int(tref%3_000),
			eventDriven: eventDriven,
			cut:         int64(cut % 5_000),
			cycles:      5_000,
		}
		if diff, _ := attributionRun(t, m); diff != "" {
			t.Fatalf("%v: %s", m, diff)
		}
	})
}

// TestAttributionOracleNoticesDrift: the oracle is not vacuous. A group
// whose shared total drifts by one cycle mid-run is reported at its
// next member's CAS, and a cube cell that drifts at the next event.
func TestAttributionOracleNoticesDrift(t *testing.T) {
	for _, what := range []string{"group", "cube"} {
		cfg := DefaultConfig(2)
		cfg.Interference = true
		c, err := New(cfg, core.NewFRFCFS())
		if err != nil {
			t.Fatal(err)
		}
		c.OnReadDone = func(*core.Request, int64) {}
		o := &attrOracle{ref: newRefTracker(c)}
		c.obs = append(c.obs, o)
		tampered := false
		for now := int64(0); now < 5_000 && o.diff == ""; now++ {
			c.Accept(int(now%2), uint64(now*977%40_000), false, now)
			c.Tick(now)
			if tampered || now < 1_000 {
				continue
			}
			switch what {
			case "group":
				for gi := range c.intf.groups {
					if g := &c.intf.groups[gi]; g.n > 0 {
						g.total++
						tampered = true
						break
					}
				}
			case "cube":
				c.intf.cube[0]++
				tampered = true
			}
		}
		if !tampered || o.diff == "" {
			t.Errorf("%s: tampered %v, but the oracle saw no difference", what, tampered)
		}
	}
}
