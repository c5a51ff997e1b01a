package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sweep units: the arena matrix decomposes into independent,
// serializable work units — one per (mix, policy, share, channels)
// cell plus one per private solo baseline — that a single process
// executes in a parallelDo fan-out and the fabric coordinator
// (internal/fabric) ships to workers over HTTP. A unit carries only
// names and small scalars, never closures, so the same Unit value
// yields the same sim.Config (and therefore the same deterministic
// Result) in any process. ReduceArena then folds per-unit Results back
// into the ArenaResult a monolithic sweep computes, making "sharded
// equals serial" true by construction: both paths run identical unit
// configs and reduce them with identical float arithmetic.

// Unit is one serializable simulation work unit of an arena sweep.
// Policy is empty for a private solo baseline (one benchmark on a
// timing-scaled system); otherwise the unit is a co-run cell.
type Unit struct {
	// Key is the runner memo key; the run's artifact set is named
	// after it.
	Key string `json:"key"`

	// Benches names the workload, one benchmark per core (exactly one
	// for a solo baseline).
	Benches []string `json:"benches"`

	// Policy names the scheduler for a cell unit; empty means solo.
	Policy string `json:"policy,omitempty"`

	// Share0 is thread 0's allocation for a cell unit (zero = equal).
	Share0 core.Share `json:"share0,omitempty"`

	// Channels is the memory-channel count.
	Channels int `json:"channels"`

	// Scale is the solo baseline's uniform memory-timing factor (the
	// co-runner count whose private baseline this unit is).
	Scale int `json:"scale,omitempty"`
}

// Solo reports whether the unit is a private solo baseline.
func (u Unit) Solo() bool { return u.Policy == "" }

// ArenaSoloUnit is the private baseline for one benchmark of an
// n-thread mix on the given channel count: solo occupancy of a system
// whose memory timing is uniformly scaled by n, the same baseline the
// paper's normalized figures use.
func ArenaSoloUnit(bench string, n, channels int) Unit {
	return Unit{
		Key:      fmt.Sprintf("arena/solo/%s/x%d/ch%d", bench, n, channels),
		Benches:  []string{bench},
		Channels: channels,
		Scale:    n,
	}
}

// ArenaCellUnit is one (mix, policy, share, channels) co-run cell.
func ArenaCellUnit(mix []string, policy string, share0 core.Share, channels int) Unit {
	return Unit{
		Key: fmt.Sprintf("arena/%s/%s/s%s/ch%d",
			strings.Join(mix, "+"), policy, shareLabel(share0), channels),
		Benches:  append([]string(nil), mix...),
		Policy:   policy,
		Share0:   share0,
		Channels: channels,
	}
}

// ArenaUnits enumerates a spec's work units in deterministic order:
// the deduplicated solo baselines first (cells share them), then the
// cells cell-major (mixes, then shares, then channels, then policies —
// the same order ArenaResult rows use).
func ArenaUnits(spec ArenaSpec) []Unit {
	var units []Unit
	seen := make(map[string]bool)
	for _, mix := range spec.Mixes {
		for _, ch := range spec.Channels {
			for _, b := range mix {
				u := ArenaSoloUnit(b, len(mix), ch)
				if !seen[u.Key] {
					seen[u.Key] = true
					units = append(units, u)
				}
			}
		}
	}
	for _, mix := range spec.Mixes {
		for _, s0 := range spec.Shares {
			for _, ch := range spec.Channels {
				for _, pol := range arenaPolicies {
					units = append(units, ArenaCellUnit(mix, pol, s0, ch))
				}
			}
		}
	}
	return units
}

// SimConfig materializes the unit's simulator configuration. The
// mapping is pure: equal Units yield equal configs in every process,
// which is what makes sharded execution deterministic.
func (u Unit) SimConfig() (sim.Config, error) {
	if u.Solo() {
		if len(u.Benches) != 1 {
			return sim.Config{}, fmt.Errorf("exp: solo unit %q has %d benchmarks", u.Key, len(u.Benches))
		}
		if u.Scale < 1 {
			return sim.Config{}, fmt.Errorf("exp: solo unit %q has scale %d", u.Key, u.Scale)
		}
	}
	return sim.NamedConfig(u.Benches, u.Policy, arenaShares(u.Share0, len(u.Benches)), u.Channels, u.Scale)
}

// RunUnit executes (or recalls) one unit under the runner's
// configuration — the same memoized path every figure driver uses, so
// checkpointing, resume, the artifact set, and progress accounting all
// apply.
func (r *Runner) RunUnit(u Unit) (sim.Result, error) {
	cfg, err := u.SimConfig()
	if err != nil {
		return sim.Result{}, err
	}
	return r.run(u.Key, cfg)
}

// ReduceArena folds per-unit Results into the ArenaResult a
// single-process sweep computes. get resolves a unit to its Result
// (from the runner's memo, or from artifacts a fabric merge collected);
// the reduction's float arithmetic visits threads in mix order exactly
// like the monolithic sweep, so equal inputs give bit-equal rows. intf
// (nil when attribution is off) resolves a cell's interference counts;
// the index is a single division, so serial and merged floats agree
// bit for bit.
func ReduceArena(spec ArenaSpec, get func(Unit) (sim.Result, error), intf InterferenceGetter) (ArenaResult, error) {
	out := ArenaResult{Spec: spec}
	var rows []ArenaRow
	for _, mix := range spec.Mixes {
		for _, s0 := range spec.Shares {
			for _, ch := range spec.Channels {
				for _, pol := range arenaPolicies {
					res, err := get(ArenaCellUnit(mix, pol, s0, ch))
					if err != nil {
						return out, err
					}
					row := ArenaRow{
						Policy:   pol,
						Workload: strings.Join(mix, "+"),
						Share0:   shareLabel(s0),
						Channels: ch,
						BusUtil:  res.DataBusUtil,
					}
					if len(res.Threads) != len(mix) {
						return out, fmt.Errorf("exp: cell %s has %d threads, want %d",
							row.Workload, len(res.Threads), len(mix))
					}
					minSd, maxSd := 0.0, 0.0
					for t, th := range res.Threads {
						solo, err := get(ArenaSoloUnit(mix[t], len(mix), ch))
						if err != nil {
							return out, err
						}
						alone := solo.Threads[0]
						row.SumIPC += th.IPC
						sd := alone.IPC / th.IPC
						row.WeightedSpeedup += 1 / sd
						if t == 0 || sd < minSd {
							minSd = sd
						}
						if sd > maxSd {
							maxSd = sd
						}
					}
					row.MaxSlowdown = maxSd
					row.FairnessIndex = minSd / maxSd
					if intf != nil {
						cross, total, ok := intf(ArenaCellUnit(mix, pol, s0, ch))
						row.InterferenceIndex = interferenceIndex(cross, total, ok)
					}
					rows = append(rows, row)
				}
			}
		}
	}
	markParetoFrontiers(rows)
	out.Rows = rows
	return out, nil
}

// markParetoFrontiers stars, within each contiguous len(arenaPolicies)
// cell group, the rows no other policy dominates on the
// fairness-vs-throughput plane.
func markParetoFrontiers(rows []ArenaRow) {
	for g := 0; g < len(rows); g += len(arenaPolicies) {
		group := rows[g : g+len(arenaPolicies)]
		for i := range group {
			dominated := false
			for j := range group {
				if j == i {
					continue
				}
				if group[j].WeightedSpeedup >= group[i].WeightedSpeedup &&
					group[j].FairnessIndex >= group[i].FairnessIndex &&
					(group[j].WeightedSpeedup > group[i].WeightedSpeedup ||
						group[j].FairnessIndex > group[i].FairnessIndex) {
					dominated = true
					break
				}
			}
			group[i].Pareto = !dominated
		}
	}
}

// ParseArenaSpec builds an ArenaSpec from comma-separated flag values:
// mixes like "vpr+art,swim+mcf+vpr+art" ("+" joins the benchmarks of
// one mix), shares like "eq,3-4" (thread 0's fraction, "/" also
// accepted), channels like "1,2". Empty strings keep the corresponding
// DefaultArenaSpec axis, so a single flag narrows one dimension.
func ParseArenaSpec(mixes, shares, channels string) (ArenaSpec, error) {
	spec := DefaultArenaSpec()
	if mixes != "" {
		spec.Mixes = nil
		for _, m := range strings.Split(mixes, ",") {
			mix := strings.Split(m, "+")
			for _, b := range mix {
				if _, err := trace.ByName(b); err != nil {
					return ArenaSpec{}, fmt.Errorf("exp: mix %q: %w", m, err)
				}
			}
			spec.Mixes = append(spec.Mixes, mix)
		}
	}
	if shares != "" {
		spec.Shares = nil
		for _, s := range strings.Split(shares, ",") {
			share, err := parseShare(s)
			if err != nil {
				return ArenaSpec{}, err
			}
			spec.Shares = append(spec.Shares, share)
		}
	}
	if channels != "" {
		spec.Channels = nil
		for _, c := range strings.Split(channels, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 1 {
				return ArenaSpec{}, fmt.Errorf("exp: bad channel count %q", c)
			}
			spec.Channels = append(spec.Channels, n)
		}
	}
	return spec, nil
}

// parseShare reads "eq" (the equal split) or a fraction "num-den" /
// "num/den" for thread 0's allocation.
func parseShare(s string) (core.Share, error) {
	s = strings.TrimSpace(s)
	if s == "eq" || s == "" {
		return core.Share{}, nil
	}
	sep := "-"
	if strings.Contains(s, "/") {
		sep = "/"
	}
	parts := strings.SplitN(s, sep, 2)
	if len(parts) != 2 {
		return core.Share{}, fmt.Errorf("exp: bad share %q (want \"eq\" or \"num-den\")", s)
	}
	num, err1 := strconv.Atoi(parts[0])
	den, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return core.Share{}, fmt.Errorf("exp: bad share %q (want \"eq\" or \"num-den\")", s)
	}
	share := core.Share{Num: num, Den: den}
	if !share.Valid() || num == den {
		return core.Share{}, fmt.Errorf("exp: share %q must be a proper fraction below 1", s)
	}
	return share, nil
}
