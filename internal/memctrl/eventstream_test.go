package memctrl

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
)

// streamEvent is one recorded Observer call, flattened to values so two
// recordings compare with ==.
type streamEvent struct {
	what string // accept, tick, refresh, before, after, done
	now  int64

	id      uint64 // 0 = no request (idle-close precharge, tick, refresh)
	slot    int32
	isWrite bool

	chIdx                 int // refresh
	kind                  dram.Kind
	bank, row             int
	key                   int64
	inverted, first       bool
	state                 core.BankState
	dataEnd, doneAt, arrv int64
}

// streamRecorder is the in-package observer the tests append to c.obs.
type streamRecorder struct{ events []streamEvent }

func (s *streamRecorder) request(e streamEvent, r *core.Request) streamEvent {
	if r != nil {
		e.id, e.slot, e.isWrite, e.arrv = r.ID, r.Slot, r.IsWrite, r.ArrivalReal
	}
	return e
}

func (s *streamRecorder) command(what string, cmd audit.Cmd, now int64) {
	s.events = append(s.events, s.request(streamEvent{
		what: what, now: now, kind: cmd.Kind, bank: cmd.FlatBank, row: cmd.Row, key: cmd.Key,
		inverted: cmd.Inverted, first: cmd.First, state: cmd.State, dataEnd: cmd.DataEnd,
	}, cmd.Req))
}

func (s *streamRecorder) OnAccept(r *core.Request, now int64) {
	s.events = append(s.events, s.request(streamEvent{what: "accept", now: now}, r))
}
func (s *streamRecorder) OnTick(now int64) {
	s.events = append(s.events, streamEvent{what: "tick", now: now})
}
func (s *streamRecorder) OnRefresh(chIdx int, now int64) {
	s.events = append(s.events, streamEvent{what: "refresh", now: now, chIdx: chIdx})
}
func (s *streamRecorder) BeforeIssue(cmd audit.Cmd, now int64) { s.command("before", cmd, now) }
func (s *streamRecorder) AfterIssue(cmd audit.Cmd, now int64)  { s.command("after", cmd, now) }
func (s *streamRecorder) OnReadDone(r *core.Request, doneAt, now int64) {
	s.events = append(s.events, s.request(streamEvent{what: "done", now: now, doneAt: doneAt}, r))
}

// withoutTicks drops OnTick, the one event that depends on which cycles
// are full ticks rather than on what the controller did.
func (s *streamRecorder) withoutTicks() []streamEvent {
	out := make([]streamEvent, 0, len(s.events))
	for _, e := range s.events {
		if e.what != "tick" {
			out = append(out, e)
		}
	}
	return out
}

// Ways to drive one controller cycle.
const (
	driveFast     = iota // Tick, event-driven
	driveStrict          // Tick, SetEventDriven(false)
	driveParallel        // ScheduleChannel on one goroutine per channel
)

// recordStress runs TestStressInvariants' random traffic (refresh every
// 3,000 cycles) to quiescence and returns the controller and everything
// a recorder appended to c.obs saw; more observers listen after it.
func recordStress(t *testing.T, policy core.Policy, channels, drive int, more ...Observer) (*Controller, *streamRecorder) {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.Channels = channels
	cfg.DRAM.Timing.TREF = 3000
	c, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	c.OnReadDone = func(*core.Request, int64) {}
	c.SetEventDriven(drive != driveStrict)
	rec := &streamRecorder{}
	c.obs = append(append(c.obs, rec), more...)

	tick := c.Tick
	if drive == driveParallel {
		tick = func(now int64) {
			if !c.TickBegin(now) {
				return
			}
			var wg sync.WaitGroup
			for ch := 0; ch < channels; ch++ {
				wg.Add(1)
				go func(ch int) {
					defer wg.Done()
					c.ScheduleChannel(ch, now)
				}(ch)
			}
			wg.Wait()
			c.TickEnd(now)
		}
	}
	seed := uint64(42)
	now := int64(0)
	for ; now < 30_000; now++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		if x := seed; x%3 != 0 {
			c.Accept(int(x>>20%3), (x>>8)%500_000, x%5 == 0, now)
		}
		tick(now)
	}
	for quiet := 0; quiet < 2_000 && now < 230_000; now++ {
		tick(now)
		if quiet++; c.PendingRequests() != 0 {
			quiet = 0
		}
	}
	return c, rec
}

// checkStreamGrammar holds a finished recording to the stream's
// contract, request by request.
func checkStreamGrammar(t *testing.T, c *Controller, events []streamEvent) {
	t.Helper()
	type life struct {
		cmds    int
		casEnd  int64 // DataEnd of the CAS; 0 before it
		retired bool
	}
	lives := map[uint64]*life{}
	slotOwner := map[int32]uint64{}
	var cmdCount [6]int64
	var refreshes int64
	fail := func(i int, format string, args ...any) {
		t.Fatalf("event %d %+v: %s", i, events[i], fmt.Sprintf(format, args...))
	}
	retire := func(i int, e streamEvent, l *life) {
		if l.retired || slotOwner[e.slot] != e.id {
			fail(i, "request retired twice or from a slot it does not own")
		}
		l.retired = true
		delete(slotOwner, e.slot)
	}
	for i, e := range events {
		l := lives[e.id]
		if e.id != 0 && l == nil && e.what != "accept" {
			fail(i, "request seen before its OnAccept")
		}
		switch e.what {
		case "accept":
			if l != nil {
				fail(i, "accepted twice")
			}
			if owner, live := slotOwner[e.slot]; live {
				fail(i, "slot still held by live request %d", owner)
			}
			lives[e.id], slotOwner[e.slot] = &life{}, e.id
		case "refresh":
			refreshes++
		case "before":
			cmdCount[e.kind]++
			if i+1 == len(events) || events[i+1].what != "after" {
				fail(i, "BeforeIssue not followed by its AfterIssue")
			}
			isCAS := e.kind == dram.KindRead || e.kind == dram.KindWrite
			if e.id == 0 {
				if e.kind != dram.KindPrecharge || e.first || e.inverted {
					fail(i, "request-less command is not a plain precharge")
				}
				break
			}
			if l.casEnd != 0 || l.retired {
				fail(i, "command after the request's CAS")
			}
			if e.first != (l.cmds == 0) {
				fail(i, "First = %v on command %d of the request", e.first, l.cmds)
			}
			if e.first && e.kind != nextCmdFor(&core.Request{IsWrite: e.isWrite}, e.state) {
				fail(i, "service began %v with a %v", e.state, e.kind)
			}
			if isCAS && (e.kind == dram.KindWrite) != e.isWrite {
				fail(i, "CAS kind does not match the request")
			}
			if e.inverted && !isCAS {
				fail(i, "inversion flagged on a non-CAS command")
			}
			l.cmds++
		case "after":
			if i == 0 {
				fail(i, "AfterIssue opens the stream")
			}
			b := events[i-1]
			b.what, b.dataEnd = "after", e.dataEnd
			if b != e {
				fail(i, "AfterIssue does not match the BeforeIssue before it")
			}
			switch e.kind {
			case dram.KindRead:
				if e.dataEnd <= e.now {
					fail(i, "read burst ends at %d, not after its CAS", e.dataEnd)
				}
				l.casEnd = e.dataEnd
			case dram.KindWrite:
				l.casEnd = e.dataEnd
				retire(i, e, l) // a write retires at its CAS
			}
		case "done":
			if e.isWrite || l.casEnd == 0 || e.doneAt != l.casEnd || e.doneAt > e.now {
				fail(i, "read delivered at %d, CAS burst ended %d", e.doneAt, l.casEnd)
			}
			retire(i, e, l)
		}
	}
	for id, l := range lives {
		if !l.retired {
			t.Errorf("request %d never retired (%d commands)", id, l.cmds)
		}
	}
	if len(lives) == 0 || refreshes == 0 {
		t.Fatalf("degenerate recording: %d requests, %d refreshes", len(lives), refreshes)
	}
	if refreshes != c.CommandCount(dram.KindRefresh) {
		t.Errorf("%d OnRefresh events, %d refreshes issued", refreshes, c.CommandCount(dram.KindRefresh))
	}
	for k := dram.KindActivate; k < dram.KindRefresh; k++ {
		if cmdCount[k] != c.CommandCount(k) {
			t.Errorf("%d %v events, %d issued", cmdCount[k], k, c.CommandCount(k))
		}
	}
}

// TestEventStream tests the Observer seam itself. (a) Grammar: every
// request is accepted, issues strictly paired commands ending in
// exactly one CAS — a strict-key rival may close its row in between, so
// activates can repeat — with First on exactly the first, and retires
// once, reads at the cycle their CAS announced; no two live requests
// share a Slot. (b) The stream minus OnTick is identical under the
// per-cycle oracle and when ScheduleChannel runs concurrently, a
// stronger equivalence than equal Results.
func TestEventStream(t *testing.T) {
	policies := map[string]func(banks int) core.Policy{
		"FR-FCFS": func(int) core.Policy { return core.NewFRFCFS() },
		"FQ-VFTF": func(banks int) core.Policy { return core.NewFQVFTF(stressShares, banks, dram.DDR2800()) },
		"BLISS":   func(int) core.Policy { return core.NewBLISS(3) },
	}
	for name, mk := range policies {
		for _, channels := range []int{1, 2} {
			name, mk, channels := name, mk, channels
			t.Run(fmt.Sprintf("%s/%dch", name, channels), func(t *testing.T) {
				t.Parallel()
				banks := channels * dram.DefaultConfig().Banks()
				c, fast := recordStress(t, mk(banks), channels, driveFast)
				checkStreamGrammar(t, c, fast.events)
				want := fast.withoutTicks()
				for drive, label := range map[int]string{driveStrict: "strict", driveParallel: "parallel"} {
					_, rec := recordStress(t, mk(banks), channels, drive)
					if got := rec.withoutTicks(); !reflect.DeepEqual(got, want) {
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						t.Errorf("%s stream diverges from the fast path's at event %d of %d/%d", label, i, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestEventStreamAuditorFirst pins the attach order: the auditor hears
// an event before later observers do, so the conservation violation
// TestInterferenceConservationAuditFires plants panics in the auditor
// before a recorder attached after it sees that CAS's AfterIssue.
func TestEventStreamAuditorFirst(t *testing.T) {
	c := intfCtrl(t, 2, core.NewFRFCFS())
	rec := &streamRecorder{}
	c.obs = append(c.obs, rec)
	if c.obs[0] != Observer(c.aud) {
		t.Fatal("the auditor is not the first observer")
	}
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(1, addr(2, 5, 1), false, 0)
	c.Tick(0)
	c.Tick(1)
	for i := range c.intf.attr {
		c.intf.attr[i].total++
	}
	defer func() {
		if _, ok := recover().(*audit.Violation); !ok {
			t.Fatal("tampered attribution totals did not trip the audit conservation check")
		}
		var acts int
		for _, e := range rec.events {
			if e.what == "after" && e.kind == dram.KindActivate {
				acts++
			}
			if e.what == "after" && e.kind == dram.KindRead {
				t.Errorf("the recorder saw the violating CAS's AfterIssue: %+v", e)
			}
		}
		if acts == 0 {
			t.Error("the recorder saw no command at all")
		}
	}()
	for now := int64(2); now < 500; now++ {
		c.Tick(now)
	}
}
