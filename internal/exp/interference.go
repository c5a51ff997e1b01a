package exp

import "repro/internal/memctrl"

// Interference artifacts: with Config.Interference every run's artifact
// set carries a snapshot of its who-delayed-whom matrix over the
// measurement window, and the arena reduction folds each cell's
// matrix into a single interference_index column — the fraction of all
// attributed wait cycles charged to a *different* thread. The snapshot
// is integers end to end; the index is computed by one float division
// in the shared reducer, so a sweepd-merged arena is byte-identical to
// a serial one.

// InterferenceDoc is the schema of a run's interference artifact.
type InterferenceDoc struct {
	Key          string                       `json:"key"`
	Policy       string                       `json:"policy"`
	Interference memctrl.InterferenceSnapshot `json:"interference"`
}

// Counts returns the document's attributed (cross, total) cycle counts;
// ok=false on a nil document (attribution off).
func (d *InterferenceDoc) Counts() (cross, total int64, ok bool) {
	if d == nil {
		return 0, 0, false
	}
	return d.Interference.Cross, d.Interference.Total, true
}

// InterferenceGetter resolves an arena cell unit to its attributed
// (cross, total) cycle counts. ok=false means the unit has no matrix
// (attribution off), which renders as interference_index 0.
type InterferenceGetter func(u Unit) (cross, total int64, ok bool)

// interferenceIndex is the shared division both the serial sweep and
// the fabric merge use: Cross/Total, 0 for an empty or absent matrix.
func interferenceIndex(cross, total int64, ok bool) float64 {
	if !ok || total == 0 {
		return 0
	}
	return float64(cross) / float64(total)
}

// UnitInterference resolves a unit's attributed (cross, total) counts
// from the runner's memo — the InterferenceGetter a serial arena sweep
// reduces through.
func (r *Runner) UnitInterference(u Unit) (int64, int64, bool) {
	r.mu.Lock()
	e := r.memo[u.Key]
	r.mu.Unlock()
	if e == nil {
		return 0, 0, false
	}
	<-e.done
	return e.intf.Counts()
}
