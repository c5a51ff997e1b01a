package memctrl

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/snapshot"
)

// saveCtrl runs a controller briefly so its policy state is non-trivial,
// then serializes it.
func saveCtrl(t *testing.T, c *Controller) []byte {
	t.Helper()
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(1, addr(3, 9, 0), false, 0)
	for now := int64(0); now < 200; now++ {
		c.Tick(now)
	}
	return encodeCtrl(t, c)
}

func encodeCtrl(t *testing.T, c *Controller) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewEncoder(&buf)
	c.State(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func loadCtrl(t *testing.T, c *Controller, snap []byte) error {
	t.Helper()
	r, err := snapshot.NewDecoder(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	return c.State(r)
}

// TestSnapshotCrossPolicyRestoreFails pins the policy-name frame:
// FR-VFTF and FR-VSTF share the vftBase state section with identical
// geometry, so without the frame a snapshot of one would restore
// silently into the other and resume a different experiment. The
// restore must instead fail with an error naming both policies.
func TestSnapshotCrossPolicyRestoreFails(t *testing.T) {
	shares := []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}}
	tt := dram.DDR2800()
	mk := func(name string) *Controller {
		var p core.Policy
		switch name {
		case "FR-VFTF":
			p = core.NewFRVFTF(shares, 8, tt)
		case "FR-VSTF":
			p = core.NewFRVSTF(shares, 8, tt)
		}
		return newCtrl(t, 2, p)
	}
	for _, tc := range []struct{ save, load string }{
		{"FR-VFTF", "FR-VSTF"},
		{"FR-VSTF", "FR-VFTF"},
	} {
		snap := saveCtrl(t, mk(tc.save))
		err := loadCtrl(t, mk(tc.load), snap)
		if err == nil {
			t.Fatalf("%s snapshot restored into %s controller; want error", tc.save, tc.load)
		}
		if !strings.Contains(err.Error(), tc.save) || !strings.Contains(err.Error(), tc.load) {
			t.Fatalf("cross-policy error %q does not name both policies %q and %q", err, tc.save, tc.load)
		}
		// The same snapshot restores cleanly under its own policy.
		if err := loadCtrl(t, mk(tc.save), snap); err != nil {
			t.Fatalf("same-policy restore of %s failed: %v", tc.save, err)
		}
	}
}

// TestSnapshotPolicyCapabilityMismatch: a snapshot whose policy carried
// no serialized state (FR-FCFS) must not restore into a controller
// whose policy expects a state section, and vice versa — either way is
// a clean error, not a silent skip or a section-name panic deeper in
// the stream.
func TestSnapshotPolicyCapabilityMismatch(t *testing.T) {
	shares := []core.Share{{Num: 1, Den: 2}, {Num: 1, Den: 2}}
	tt := dram.DDR2800()

	stateless := saveCtrl(t, newCtrl(t, 2, core.NewFRFCFS()))
	err := loadCtrl(t, newCtrl(t, 2, core.NewFRVFTF(shares, 8, tt)), stateless)
	if err == nil || !strings.Contains(err.Error(), "policy-state flag") {
		t.Fatalf("stateless snapshot into stateful policy: err = %v, want policy-state flag mismatch", err)
	}

	stateful := saveCtrl(t, newCtrl(t, 2, core.NewFRVFTF(shares, 8, tt)))
	err = loadCtrl(t, newCtrl(t, 2, core.NewFRFCFS()), stateful)
	if err == nil || !strings.Contains(err.Error(), "policy-state flag") {
		t.Fatalf("stateful snapshot into stateless policy: err = %v, want policy-state flag mismatch", err)
	}
}

// TestSnapshotArenaPolicyRoundTrip: each interval policy's serialized
// state survives a save/load/re-save cycle byte-identically at the
// controller layer.
func TestSnapshotArenaPolicyRoundTrip(t *testing.T) {
	tt := dram.DDR2800()
	for _, tc := range []struct {
		name string
		mk   func() core.Policy
	}{
		{"BLISS", func() core.Policy { return core.NewBLISS(2) }},
		{"SLOW-FAIR", func() core.Policy { return core.NewSlowFair(2, tt) }},
		{"BANK-BW", func() core.Policy { return core.NewBankBW(2, 8) }},
	} {
		snap := saveCtrl(t, newCtrl(t, 2, tc.mk()))
		c2 := newCtrl(t, 2, tc.mk())
		if err := loadCtrl(t, c2, snap); err != nil {
			t.Fatalf("%s: restore failed: %v", tc.name, err)
		}
		var buf bytes.Buffer
		w := snapshot.NewEncoder(&buf)
		c2.State(w)
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: re-save: %v", tc.name, err)
		}
		if !bytes.Equal(snap, buf.Bytes()) {
			t.Fatalf("%s: re-serialized state differs (%d vs %d bytes)", tc.name, len(snap), len(buf.Bytes()))
		}
	}
}

// TestRestoreHostilePicks: v6 carried the scheduler's key and pick
// caches and its work counts, v7 still its wake lists; v8 carries none of
// them, so a v7 stream is refused by its version before anything is
// read. A faithful stream restores into a controller whose caches are
// empty and whose SchedCounts restart at zero.
func TestRestoreHostilePicks(t *testing.T) {
	// Two threads with a request each on one bank, examined at cycle 0 so
	// both queues carry live picks and keys, neither yet issued.
	c := newCtrl(t, 2, core.NewFRFCFS())
	c.Accept(0, addr(2, 5, 0), false, 0)
	c.Accept(1, addr(2, 9, 0), false, 0)
	c.TickBegin(0)
	c.ScheduleChannel(0, 0)
	if c.SchedCounts() == (SchedCounts{}) {
		t.Fatal("the examination at cycle 0 counted no work")
	}
	faithful := encodeCtrl(t, c)
	restored := newCtrl(t, 2, core.NewFRFCFS())
	restored.ScheduleChannel(0, 0) // counts an examination the restore must forget
	if err := loadCtrl(t, restored, faithful); err != nil {
		t.Fatalf("faithful snapshot refused: %v", err)
	}
	if got := restored.SchedCounts(); got != (SchedCounts{}) {
		t.Errorf("restored controller's SchedCounts = %+v, want zero", got)
	}

	v7 := append([]byte(nil), faithful...)
	v7[len(snapshot.Magic)] = 7
	if err := loadCtrl(t, newCtrl(t, 2, core.NewFRFCFS()), v7); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("v7 stream: err = %v, want a format-version refusal", err)
	}
}
