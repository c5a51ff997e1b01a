package exp

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/memctrl"
)

// Interference artifacts: with Config.Interference every run leaves a
// <key>.interference.json snapshot of its who-delayed-whom matrix over
// the measurement window, and the arena reduction folds each cell's
// matrix into a single interference_index column — the fraction of all
// attributed wait cycles charged to a *different* thread. The snapshot
// is integers end to end; the index is computed by one float division
// in the shared reducer, so a sweepd-merged arena is byte-identical to
// a serial one.

// InterferenceDoc is the schema of a <key>.interference.json artifact.
type InterferenceDoc struct {
	Key          string                       `json:"key"`
	Policy       string                       `json:"policy"`
	Interference memctrl.InterferenceSnapshot `json:"interference"`
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

// interferenceDir is where the runner persists interference artifacts:
// next to the result artifacts when checkpointing (so resumed sweeps
// recall the matrix with the result), else with the series artifacts.
func (r *Runner) interferenceDir() string {
	if r.cfg.CheckpointDir != "" {
		return r.cfg.CheckpointDir
	}
	return r.cfg.SeriesDir
}

func (r *Runner) interferencePath(key string) string {
	return filepath.Join(r.interferenceDir(), sanitizeKey(key)+".interference.json")
}

// saveInterference persists one run's attribution snapshot (a no-op
// without an artifact directory; the in-memory memo still feeds the
// arena reduction).
func (r *Runner) saveInterference(key string, doc InterferenceDoc) error {
	dir := r.interferenceDir()
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(r.interferencePath(key), append(b, '\n'))
}

// loadInterference recalls a persisted attribution snapshot, mirroring
// loadResult's resume contract.
func (r *Runner) loadInterference(key string) (InterferenceDoc, bool) {
	if r.cfg.CheckpointDir == "" || !r.cfg.Resume {
		return InterferenceDoc{}, false
	}
	b, err := os.ReadFile(r.interferencePath(key))
	if err != nil {
		return InterferenceDoc{}, false
	}
	var doc InterferenceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return InterferenceDoc{}, false
	}
	return doc, true
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
	if e.intf == nil {
		return 0, 0, false
	}
	return e.intf.Interference.Cross, e.intf.Interference.Total, true
}
