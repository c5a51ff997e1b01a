package memctrl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
)

// The controller owns the paper's deferred finish-time decision
// (Section 3.2): issue stores the key a request's first command issued
// under, and core.KeyOf reads it back, so no policy looks at
// Request.Key. These tests hold the controller to that through the
// event stream.

// freezeWatch checks the controller's half of the rule: every First
// command leaves the request frozen at exactly the key the scheduler
// ranked, and every later command of the request is ranked by that key.
type freezeWatch struct {
	nopObserver
	keys   map[uint64]int64 // live request -> the key its first command issued under
	firsts int
	later  int
	errs   []string
}

func (w *freezeWatch) AfterIssue(cmd audit.Cmd, now int64) {
	r := cmd.Req
	if r == nil {
		return
	}
	if cmd.First {
		w.firsts++
		if !r.KeyFrozen || int64(r.Key) != cmd.Key {
			w.errs = append(w.errs, fmt.Sprintf("cycle %d: first command of request %d issued under key %d, request holds %d (frozen %v)",
				now, r.ID, cmd.Key, int64(r.Key), r.KeyFrozen))
		}
		w.keys[r.ID] = cmd.Key
	} else {
		w.later++
		if k, ok := w.keys[r.ID]; !ok || k != cmd.Key || !r.KeyFrozen || int64(r.Key) != k {
			w.errs = append(w.errs, fmt.Sprintf("cycle %d: %v of request %d ranked by key %d, its first command froze %d (seen %v; request holds %d, frozen %v)",
				now, cmd.Kind, r.ID, cmd.Key, k, ok, int64(r.Key), r.KeyFrozen))
		}
	}
	if cmd.Kind.IsCAS() {
		delete(w.keys, r.ID)
	}
}

// frozenKeyGuard fails the test when the controller asks the policy for
// the key of a request whose key is frozen: KeyOf must have answered.
type frozenKeyGuard struct {
	core.Policy
	t *testing.T
}

func (g frozenKeyGuard) Key(r *core.Request, state core.BankState) int64 {
	if r.KeyFrozen {
		g.t.Errorf("%s: Key called for request %d after its key was frozen", g.Name(), r.ID)
	}
	return g.Policy.Key(r, state)
}

// guardPolicy wraps p in a frozenKeyGuard, keeping the interval entry
// point visible to the controller. Channels are set here because the
// wrapper hides ChannelSetter.
func guardPolicy(t *testing.T, p core.Policy, channels int) core.Policy {
	if cs, ok := p.(core.ChannelSetter); ok && channels > 1 {
		cs.SetChannels(channels)
	}
	g := frozenKeyGuard{p, t}
	if tk, ok := p.(core.PolicyTicker); ok {
		return struct {
			frozenKeyGuard
			core.PolicyTicker
		}{g, tk}
	}
	return g
}

// unfreezer is the planted fault: a controller that forgot the freeze,
// as seen by everything listening after it.
type unfreezer struct{ nopObserver }

func (unfreezer) AfterIssue(cmd audit.Cmd, _ int64) {
	if cmd.First && cmd.Req != nil {
		cmd.Req.Key, cmd.Req.KeyFrozen = 0, false
	}
}

// TestControllerFreezesKeyAtFirstCommand runs TestStressInvariants'
// traffic under every policy with the watch listening and the guard
// wrapped around the policy.
func TestControllerFreezesKeyAtFirstCommand(t *testing.T) {
	for _, channels := range []int{1, 2} {
		for name, p := range stressPolicies(channels * dram.DefaultConfig().Banks()) {
			name, p, channels := name, p, channels
			t.Run(fmt.Sprintf("%s/%dch", name, channels), func(t *testing.T) {
				t.Parallel()
				w := &freezeWatch{keys: map[uint64]int64{}}
				c, _ := recordStress(t, guardPolicy(t, p, channels), channels, driveFast, w)
				for _, e := range w.errs {
					t.Error(e)
				}
				if w.firsts == 0 || w.later == 0 || c.PendingRequests() != 0 {
					t.Fatalf("degenerate run: %d first commands, %d later ones, %d requests stuck", w.firsts, w.later, c.PendingRequests())
				}
			})
		}
	}
}

// TestFreezeWatchCatchesMissingFreeze proves the watch has teeth: with
// the freeze undone behind the controller's back, the first command is
// reported.
func TestFreezeWatchCatchesMissingFreeze(t *testing.T) {
	w := &freezeWatch{keys: map[uint64]int64{}}
	p := core.NewFQVFTF(stressShares, dram.DefaultConfig().Banks(), dram.DDR2800())
	recordStress(t, p, 1, driveFast, unfreezer{}, w)
	if len(w.errs) == 0 || !strings.Contains(w.errs[0], "first command of request") {
		t.Fatalf("a controller that does not freeze passed the watch: %v", w.errs)
	}
}

// vftWatch restates the deferred decision for the VFTF family from
// Equation 7: the frozen finish time is FinishTime over the registers as
// they stood before the first command's own update, under the bank state
// that command names.
type vftWatch struct {
	nopObserver
	t      *testing.T
	p      *core.FRVFTF
	want   map[uint64]core.VTime
	firsts int
	moved  int // later commands whose fresh Equation 7 value had moved off the frozen one
}

func (w *vftWatch) finish(r *core.Request, state core.BankState) core.VTime {
	return w.p.ThreadVTMS(r.Thread).FinishTime(r.Arrival, r.GlobalBank, r.Channel, r.IsWrite, state)
}

func (w *vftWatch) BeforeIssue(cmd audit.Cmd, now int64) {
	r := cmd.Req
	if r == nil {
		return
	}
	if !cmd.First {
		// Cmd.State is set on first commands only; a later command is an
		// activate into a closed bank or a column access to the open row.
		state := core.BankHit
		if cmd.Kind == dram.KindActivate {
			state = core.BankClosed
		}
		if w.finish(r, state) != w.want[r.ID] {
			w.moved++
		}
		return
	}
	w.firsts++
	if r.KeyFrozen {
		w.t.Fatalf("cycle %d: request %d frozen before its first command issued", now, r.ID)
	}
	w.want[r.ID] = w.finish(r, cmd.State)
	if int64(w.want[r.ID]) != cmd.Key {
		w.t.Fatalf("cycle %d: request %d begins service %v under key %d, Equation 7 gives %d", now, r.ID, cmd.State, cmd.Key, int64(w.want[r.ID]))
	}
}

func (w *vftWatch) AfterIssue(cmd audit.Cmd, now int64) {
	if r := cmd.Req; r != nil && (!r.KeyFrozen || r.Key != w.want[r.ID]) {
		w.t.Fatalf("cycle %d: after %v request %d holds key %d (frozen %v), its first command froze %d", now, cmd.Kind, r.ID, int64(r.Key), r.KeyFrozen, int64(w.want[r.ID]))
	}
}

// TestVFTFreezeOnFirstCommand: evaluating a key does not freeze it; the
// first command does, at the pre-update Equation 7 value; and the frozen
// value stands while the thread's registers move under it.
func TestVFTFreezeOnFirstCommand(t *testing.T) {
	p := core.NewFRVFTF(stressShares, dram.DefaultConfig().Banks(), dram.DDR2800())
	w := &vftWatch{t: t, p: p, want: map[uint64]core.VTime{}}
	recordStress(t, p, 1, driveFast, w)
	if w.firsts == 0 || w.moved == 0 {
		t.Fatalf("degenerate run: %d first commands, %d later commands with moved registers", w.firsts, w.moved)
	}
}
