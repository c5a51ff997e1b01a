package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The run switches may change nothing a run simulates. One table holds
// that claim. A row is a mix, a policy, a machine and a seed, and runs
// one baseline, fast with no observer, that reassigns shares after
// warm-up and swaps them inside a refresh where the run reaches one. A
// column turns a switch on and compares with the baseline what it may
// not move:
//
//   - strict: the per-cycle oracle; the whole runState is equal.
//   - audit: the Result is equal, the auditor engaged, a refresh was
//     crossed where one is in reach, and FQ-VFTF's priority-inversion
//     window stays under x = tRAS (§3.3).
//   - interference: attribution with the auditor (its conservation
//     check rides along) and a sampler; the Result is equal, the cube is
//     not empty, and the run stepped strict has the same runState.
//   - observed: the registry, a Chrome trace and a sampler, fast and
//     strict; see observed.
//   - checkpoint: each run above is restored at an odd cycle inside the
//     window under the other stepping mode, and inside a refresh fast,
//     the path a resumed run takes (the strict column holds both modes'
//     checkpoints to the same bytes); on Table 5's rows the column
//     crosses the mode with audit and sampler.
//
// A cell is TestRunEquivalence/<row>/<cell>. Under -short the 1- and
// 2-channel rows run with no measurement window past the probe.

// runState is everything observable about a run at a cycle: the
// Result, the epoch series, the windowed attribution cube and the whole
// process state, the checkpoint bytes (every component's and observer's
// section). Two runs are equivalent exactly when their runStates are.
type runState struct {
	Result Result
	Epochs []epoch
	Cube   memctrl.InterferenceSnapshot
	ckpt   []byte // excluded from JSON artifacts
}

// captureRun closes the audit at the current cycle and records the
// system's runState; a run streaming a Chrome trace cannot checkpoint
// and records none.
func captureRun(t testing.TB, s *System) runState {
	t.Helper()
	s.FinishAudit()
	st := runState{Result: s.Results()}
	if s.Sampler() != nil {
		st.Epochs = epochs(t, s)
	}
	st.Cube, _ = s.Interference()
	if s.cfg.Trace == nil {
		st.ckpt = checkpoint(t, s)
	}
	return st
}

func checkpoint(t testing.TB, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at cycle %d: %v", s.Cycle(), err)
	}
	return buf.Bytes()
}

// compareRuns is the table's one comparator: it reports how got differs
// from want, and on a difference writes both as JSON under testdata so
// that a CI failure leaves something to download and diff.
func compareRuns(t testing.TB, got, want runState) {
	t.Helper()
	bad := false
	if !reflect.DeepEqual(got.Result, want.Result) {
		bad = true
		t.Errorf("Result diverged\n got: %+v\nwant: %+v", got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Epochs, want.Epochs) {
		bad = true
		t.Errorf("epoch sample series diverged (%d vs %d samples)", len(got.Epochs), len(want.Epochs))
	}
	if !reflect.DeepEqual(got.Cube, want.Cube) {
		bad = true
		t.Errorf("attribution cube diverged (%d vs %d cycles)", got.Cube.Total, want.Cube.Total)
	}
	if i, ok := sameBytes(got.ckpt, want.ckpt); !ok {
		bad = true
		t.Errorf("process state diverged: checkpoint bytes differ at offset %d (%d vs %d bytes)", i, len(got.ckpt), len(want.ckpt))
	}
	if !bad {
		return
	}
	name := strings.NewReplacer("/", "_", "=", "_", " ", "_").Replace(t.Name())
	for suffix, v := range map[string]runState{"got": got, "want": want} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join("testdata", name+"."+suffix+".json"), b, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
	t.Logf("wrote testdata/%s.{got,want}.json", name)
}

// sameBytes reports whether a and b are equal, and where they first
// differ.
func sameBytes(a, b []byte) (int, bool) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i, len(a) == len(b) && i == len(a)
}

// A machine is a memory system and the schedule its rows run: 2,000
// cycles of warm-up, a share reassignment, the measurement window with
// a checkpoint at its 3,001st cycle and a probe 4,999 cycles later, then
// window more cycles. A midRefresh machine then hunts a refresh, swaps
// the shares and checkpoints inside it, and runs tail cycles more.
type machine struct {
	name       string
	channels   int
	tref       int // 0 is Table 5's 280,000 cycles
	window     int64
	midRefresh bool
}

var (
	table5        = machine{name: "1ch", channels: 1, window: 20_000}
	table5Refresh = machine{name: "1ch-refresh", channels: 1, window: 260_000, midRefresh: true}
	refresh2      = machine{name: "2ch", channels: 2, tref: 7_000, window: 12_000, midRefresh: true}
	refresh4      = machine{name: "4ch", channels: 4, tref: 7_000, window: 12_000, midRefresh: true}
)

// span is the machine's window, none under -short.
func (m machine) span() int64 {
	if testing.Short() {
		return 0
	}
	return m.window
}

type column uint8

const (
	colStrict column = 1 << iota
	colAudit
	colInterference
	colObserved
	colCheckpoint
	colCross // the checkpoint column crosses mode × audit × sampler
)

type row struct {
	mix    []string
	policy string
	mach   machine
	seed   uint64
	cols   column
}

func (r row) name() string {
	return strings.Join(r.mix, "_") + "/" + r.mach.name + "/" + r.policy
}

var (
	artVpr = []string{"art", "vpr"}

	// antagonistMixes put each attack agent beside vpr or another agent:
	// their address generators and the stream agent's deep queues are on
	// the hot path.
	antagonistMixes = [][]string{{"vpr", "bushog"}, {"vpr", "rowthrash", "stream"}, {"diurnal", "bankhammer"}}

	equivRows = func() []row {
		// The seeds go round those of the suites the table replaced, so
		// neighbouring rows run different traces.
		seeds := []uint64{7, 11, 13, 17, 19, 23, 29, 31}
		var rows []row
		add := func(mix []string, policy string, m machine, cols column) {
			rows = append(rows, row{mix, policy, m, seeds[len(rows)%len(seeds)], cols})
		}
		// Longest rows first: parallel rows start about in order, so the
		// table ends on short ones. The 4-channel and antagonist rows hold
		// the stepping modes to each other audited, in the interference
		// column.
		audited := colInterference | colCheckpoint
		for _, mix := range antagonistMixes {
			add(mix, "FQ-VFTF", refresh2, audited)
			add(mix, "FR-FCFS", refresh2, audited)
		}
		for _, p := range []string{"FR-FCFS", "FR-VFTF", "FQ-VFTF", "BLISS", "SLOW-FAIR", "BANK-BW"} {
			add(artVpr, p, refresh4, audited)
		}
		add(artVpr, "FQ-VFTF", table5Refresh, colAudit|colCheckpoint)
		policies := append(PolicyNames(), "FR-VFTF-arrival")
		for _, p := range policies {
			add(artVpr, p, refresh2, colStrict|audited)
		}
		for _, p := range policies {
			cols := colStrict | colAudit | audited | colCross
			if p == "FQ-VFTF" {
				cols |= colObserved
			}
			add(artVpr, p, table5, cols)
		}
		add([]string{"vpr", "diurnal"}, "FQ-VFTF", table5, audited)
		add([]string{"stream", "bankhammer"}, "FR-FCFS", table5, audited)
		return rows
	}()
)

// crossed is the checkpoint column's cross of the stepping mode, the
// auditor and the sampler on Table 5's rows.
var crossed = []switches{{}, {sample: 1_000}, {audit: true}, {audit: true, sample: 1_000},
	{strict: true}, {strict: true, sample: 1_000}, {strict: true, audit: true}, {strict: true, audit: true, sample: 1_000}}

// switches is one column's run configuration.
type switches struct {
	strict, audit, intf, observed bool
	sample                        int64
}

func (w switches) String() string {
	s := fmt.Sprintf("strict=%v/audit=%v/sample=%d", w.strict, w.audit, w.sample)
	if w.intf {
		s += "/interference"
	}
	return s
}

func (r row) config(t testing.TB, w switches) Config {
	cfg := Config{Seed: r.seed, Strict: w.strict, Audit: w.audit, Interference: w.intf, SampleInterval: w.sample}
	for _, n := range r.mix {
		cfg.Workload = append(cfg.Workload, profile(t, n))
	}
	if r.policy == "FR-VFTF-arrival" {
		cfg.Policy = func(s []core.Share, n int, tt dram.Timing) core.Policy { return core.NewFRVFTFArrival(s, n, tt) }
	} else if f, err := PolicyByName(r.policy); err != nil {
		t.Fatal(err)
	} else {
		cfg.Policy = f
	}
	cfg.Mem.Channels = r.mach.channels
	if r.mach.tref > 0 {
		cfg.Mem.DRAM = dram.DefaultConfig()
		cfg.Mem.DRAM.Timing.TREF = r.mach.tref
	}
	return cfg
}

// straight is one run of a row's schedule.
type straight struct {
	sw           switches
	shareAt      [2]int64 // the reassignments' cycles
	ck1, ck2     []byte   // the checkpoints, at at1 and (midRefresh) at2
	at1, at2     int64
	probe, final runState
	reg          *metrics.Registry
	trace        *bytes.Buffer
}

const (
	warmup     = 2_000
	toCk, toPr = 3_001, 4_999 // window start → checkpoint → probe
	tail       = 12_000       // after the mid-refresh checkpoint
)

// intoRefresh steps s one cycle at a time until channel 0 is refreshing.
func intoRefresh(t testing.TB, s *System, limit int) int64 {
	t.Helper()
	for i := 0; i < limit; i++ {
		s.Step(1)
		if s.Controller().Channel().InRefresh(s.Cycle()) {
			return s.Cycle()
		}
	}
	t.Fatalf("no refresh window within %d cycles of %d", limit, s.Cycle()-int64(limit))
	return 0
}

// failOnViolation, deferred, turns an auditor's panic into a failure of
// t alone, so one planted fault reports every row and cell it breaks.
// Any other panic goes on.
func failOnViolation(t testing.TB) {
	switch p := recover().(type) {
	case nil:
	case *audit.Violation:
		t.Fatalf("audit violation at cycle %d: %s", p.Cycle, p.Msg)
	default:
		panic(p)
	}
}

// simulate runs r's schedule with w's switches, through the probe only
// when toProbe, and returns the run and the system at its end.
func (r row) simulate(t testing.TB, w switches, toProbe bool) (*straight, *System) {
	t.Helper()
	defer failOnViolation(t)
	out := &straight{sw: w}
	cfg := r.config(t, w)
	if w.observed {
		out.reg, out.trace = metrics.New(), &bytes.Buffer{}
		cfg.Metrics, cfg.Trace = out.reg, metrics.NewTraceWriter(out.trace)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(warmup)
	if r.mach.tref > 0 {
		out.shareAt[0] = intoRefresh(t, s, 30_000)
	}
	s.SetShare(0, core.Share{Num: 3, Den: 4})
	s.SetShare(1, core.Share{Num: 1, Den: 4})
	s.BeginMeasurement()
	s.Step(toCk)
	if out.at1 = s.Cycle(); !w.observed {
		out.ck1 = checkpoint(t, s)
	}
	s.Step(toPr)
	out.probe = captureRun(t, s)
	if toProbe {
		return out, s
	}
	s.Step(r.mach.span())
	if r.mach.midRefresh {
		out.shareAt[1] = intoRefresh(t, s, 300_000)
		s.SetShare(0, core.Share{Num: 1, Den: 4})
		s.SetShare(1, core.Share{Num: 3, Den: 4})
		if out.at2 = s.Cycle(); !w.observed {
			out.ck2 = checkpoint(t, s)
		}
		s.Step(tail)
	}
	out.final = captureRun(t, s)
	if w.observed {
		if err := cfg.Trace.Close(); err != nil {
			t.Fatalf("trace close: %v", err)
		}
	}
	return out, s
}

// TestRunEquivalence runs the table, each row in parallel with the
// others and its cells in turn, as subtests of the row.
func TestRunEquivalence(t *testing.T) {
	for _, r := range equivRows {
		if testing.Short() && r.mach != table5 && r.mach != refresh2 {
			continue
		}
		t.Run(r.name(), func(t *testing.T) {
			t.Parallel()
			r.run(t)
		})
	}
}

// run computes the row's baseline and then its cells; the checkpoint
// cells restore every run the others made.
func (r row) run(t *testing.T) {
	base, _ := r.simulate(t, switches{}, false)
	runs := []*straight{base}
	cell := func(name string, f func(t *testing.T) []*straight) {
		t.Run(name, func(t *testing.T) { runs = append(runs, f(t)...) })
	}
	if r.cols&colStrict != 0 {
		cell("strict", func(t *testing.T) []*straight {
			s, _ := r.simulate(t, switches{strict: true}, false)
			equal(t, s, base)
			return []*straight{s}
		})
	}
	if r.cols&colAudit != 0 {
		cell("audit", func(t *testing.T) []*straight {
			a, sys := r.simulate(t, switches{audit: true}, false)
			sameResult(t, a, base)
			r.audited(t, sys)
			return []*straight{a}
		})
	}
	if r.cols&colInterference != 0 {
		cell("interference", func(t *testing.T) []*straight {
			w := switches{audit: true, intf: true, sample: 1_000}
			f, sys := r.simulate(t, w, false)
			sameResult(t, f, base)
			r.audited(t, sys)
			w.strict = true
			s, _ := r.simulate(t, w, false)
			equal(t, s, f)
			for _, run := range []*straight{f, s} {
				if run.final.Cube.Total <= 0 {
					t.Errorf("%s: a contended run attributed no wait cycles", run.sw)
				}
			}
			return []*straight{f, s}
		})
	}
	if r.cols&colObserved != 0 {
		cell("observed", func(t *testing.T) []*straight {
			r.observed(t, base)
			return nil
		})
	}
	if r.cols&colCheckpoint == 0 {
		return
	}
	if r.cols&colCross != 0 {
		for _, w := range crossed {
			if !slices.ContainsFunc(runs, func(s *straight) bool { return s.sw == w }) {
				s, _ := r.simulate(t, w, true)
				runs = append(runs, s)
			}
		}
	}
	for _, run := range runs {
		name := "checkpoint/" + run.sw.String()
		t.Run(name, func(t *testing.T) { r.restore(t, run, false) })
		if run.ck2 != nil {
			t.Run(name+"/mid-refresh", func(t *testing.T) { r.restore(t, run, true) })
		}
	}
}

// equal compares a stepping mode's run with the other mode's, share
// reassignments and checkpoints included: each run hunts its own
// refresh, and both modes write the same bytes.
func equal(t *testing.T, got, want *straight) {
	t.Helper()
	compareRuns(t, got.final, want.final)
	if got.shareAt != want.shareAt {
		t.Errorf("shares reassigned at cycles %v, the other mode at %v", got.shareAt, want.shareAt)
	}
	for i, ck := range [][2][]byte{{got.ck1, want.ck1}, {got.ck2, want.ck2}} {
		if off, ok := sameBytes(ck[0], ck[1]); !ok {
			t.Errorf("checkpoint %d differs from the other mode's at offset %d", i+1, off)
		}
	}
}

func sameResult(t *testing.T, got, base *straight) {
	t.Helper()
	if !reflect.DeepEqual(got.final.Result, base.final.Result) {
		t.Errorf("%s changed the Result:\n off: %+v\n on:  %+v", got.sw, base.final.Result, got.final.Result)
	}
}

// audited holds an audited run's auditor to having engaged, a refresh
// to have been crossed where one is in reach, and FQ-VFTF's inversion
// window to the §3.3 bound x = tRAS.
func (r row) audited(t *testing.T, s *System) {
	t.Helper()
	aud := s.Controller().Auditor()
	if aud == nil {
		t.Fatal("Config.Audit did not attach an auditor")
	}
	if aud.Commands() == 0 {
		t.Error("auditor validated no commands")
	}
	if n := s.Controller().CommandCount(dram.KindRefresh); r.mach.tref > 0 && !testing.Short() && n < 10 {
		t.Errorf("run crossed only %d refresh windows, want many", n)
	} else if r.mach.midRefresh && n == 0 {
		t.Error("run crossed no refresh window")
	}
	if x := int64(dram.DDR2800().TRAS); r.policy == "FQ-VFTF" && aud.MaxInversionWindow() >= x {
		t.Errorf("FQ inversion window %d >= bound %d", aud.MaxInversionWindow(), x)
	}
}

// restore resumes run's checkpoint inside the window under the other
// stepping mode, or inside a refresh when mid fast, as a resumed run
// steps, runs it to the probe or the end, and compares it with the
// straight run there.
func (r row) restore(t *testing.T, run *straight, mid bool) {
	defer failOnViolation(t)
	ck, at, n, want := run.ck1, run.at1, int64(toPr), run.probe
	cfg := r.config(t, run.sw)
	cfg.Strict = !cfg.Strict
	if mid {
		ck, at, n, want = run.ck2, run.at2, tail, run.final
		cfg.Strict = false
	}
	s, err := Restore(cfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !s.MeasurementStarted() || s.Cycle() != at {
		t.Errorf("restored at cycle %d (measuring %v), want %d", s.Cycle(), s.MeasurementStarted(), at)
	}
	if mid && !s.Controller().Channel().InRefresh(s.Cycle()) {
		t.Error("restored system is not mid-refresh")
	}
	if got := s.Controller().SchedCounts(); got != (memctrl.SchedCounts{}) {
		t.Errorf("restored system's SchedCounts = %+v, want zero", got)
	}
	if i, ok := sameBytes(checkpoint(t, s), ck); !ok {
		t.Errorf("re-checkpoint of the restored system differs at offset %d", i)
	}
	s.Step(n)
	compareRuns(t, captureRun(t, s), want)
	if run.sw.intf && want.Cube.Cross <= 0 {
		t.Error("the window recorded no cross-thread interference on a contended mix")
	}
}

// observed runs the registry, a Chrome trace and the sampler fast and
// strict. The series record the machine, not how it was stepped: the
// strict run examines every bank every cycle and retries every refused
// Accept per cycle, and none of that may show in an epoch. The fast
// run's artifacts must agree with the simulation's own counts.
func (r row) observed(t *testing.T, base *straight) {
	const interval = 10_000
	w := switches{observed: true, sample: interval}
	f, fs := r.simulate(t, w, false)
	w.strict = true
	s, ss := r.simulate(t, w, false)
	for _, run := range []*straight{f, s} {
		sameResult(t, run, base)
	}
	if !reflect.DeepEqual(s.final.Epochs, f.final.Epochs) {
		t.Error("strict and fast runs sampled different epoch series")
	}
	_, fair := fairness(fs)
	if _, strictFair := fairness(ss); !reflect.DeepEqual(strictFair, fair) {
		t.Error("strict and fast runs sampled different fairness series")
	}

	// One sample per boundary plus the cycle-0 baseline, and the
	// counter deltas sum to the cumulative totals.
	end, samples := fs.Cycle(), f.final.Epochs
	if end%interval != 0 || len(samples) != int(end/interval)+1 {
		t.Fatalf("sampler retained %d samples over %d cycles of %d", len(samples), end, interval)
	}
	var invSum int64
	for i, sm := range samples {
		if sm.Cycle != int64(i)*interval {
			t.Errorf("sample %d at cycle %d, want %d", i, sm.Cycle, int64(i)*interval)
		}
		invSum += sm.Counters["memctrl.fq.inversions"]
	}
	if got := samples[len(samples)-1].Gauges["sim.cycle"]; got != end {
		t.Errorf("last sample sim.cycle = %d, want %d", got, end)
	}
	if latest, _ := fs.Sampler().Latest(); invSum != latest.Counters["memctrl.fq.inversions"] {
		t.Errorf("inversion deltas sum to %d, cumulative is %d", invSum, latest.Counters["memctrl.fq.inversions"])
	}
	// The fairness series conserves service: per-epoch deltas sum to
	// each thread's data-bus cycles. The registry, its latency
	// histograms and the trace agree with the simulation's own counts.
	if len(fair) != len(samples) {
		t.Errorf("fairness series retained %d samples, want %d", len(fair), len(samples))
	}
	ctrl, snap := fs.Controller(), f.reg.Snapshot()
	acts := ctrl.CommandCount(dram.KindActivate)
	var readsDone, histReads, bankActs int64
	for tdx := range r.mix {
		var svc int64
		for _, e := range fair {
			svc += e.Service[tdx]
		}
		if got := ctrl.Stats(tdx).DataBusCycles; svc != got {
			t.Errorf("thread %d fairness service sums to %d, controller charged %d", tdx, svc, got)
		}
		readsDone += ctrl.Stats(tdx).ReadsDone
		h := snap.Histograms[fmt.Sprintf("sim.thread%d.read_latency", tdx)]
		if h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 {
			t.Errorf("thread %d latency histogram implausible: %+v", tdx, h)
		}
		histReads += h.Count
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "dram.chan") && strings.HasSuffix(name, ".activates") {
			bankActs += v
		}
	}
	if snap.Gauges["sim.cycle"] != end || snap.Gauges["memctrl.cmd.ACT"] != acts || bankActs != acts || histReads != readsDone {
		t.Errorf("registry: sim.cycle %d of %d, memctrl.cmd.ACT %d and per-bank activates %d of %d, latency histograms %d of %d reads",
			snap.Gauges["sim.cycle"], end, snap.Gauges["memctrl.cmd.ACT"], bankActs, acts, histReads, readsDone)
	}
	var doc struct{ TraceEvents []struct{ Ph, Name string } }
	if err := json.Unmarshal(f.trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count := map[string]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			count[ev.Name]++
		}
	}
	if count["ACT"] != acts || count["read"] != readsDone {
		t.Errorf("trace has %d ACT events and %d read lifetimes; controller issued %d and completed %d",
			count["ACT"], count["read"], acts, readsDone)
	}
}

// TestRunToChunks holds the one run loop to its contract for every way
// a caller chunks it: whatever the chunk length, and whether the system
// is fresh or was restored mid-warm-up or mid-window, the Result and the
// complete final process state equal RunSystem's straight run; atChunk
// fires at exactly the chunk ends (each chunk measured from the previous
// end, cut at the warm-up boundary) and never at total; and
// BeginMeasurement lands on the warm-up cycle — also when the callback
// peeks at Results during warm-up, which must not start the window.
//
// The second run, FCFS over a 60k-cycle window sampled every 700 cycles,
// is long enough that counts of the simulator's own work — refused
// Accepts retried per cycle, bank examinations — differ between
// chunkings: its series and final checkpoint hold only if neither
// carries them.
func TestRunToChunks(t *testing.T) {
	type run struct {
		cfg           Config
		warmup, total int64
		want          runState
	}
	short := &run{cfg: Config{
		Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:         FQVFTF,
		Seed:           23,
		Audit:          true,
		SampleInterval: 1_000,
	}, warmup: 2_000, total: 9_000}
	long := &run{cfg: Config{
		Workload:       []trace.Profile{profile(t, "art"), profile(t, "vpr")},
		Policy:         FCFS,
		Seed:           31,
		SampleInterval: 700,
	}, warmup: 1_000, total: 61_000}
	for _, r := range []*run{short, long} {
		ref, _, err := RunSystem(r.cfg, r.warmup, r.total-r.warmup)
		if err != nil {
			t.Fatal(err)
		}
		r.want = captureRun(t, ref)
		if r.want.Result.Cycles != r.total-r.warmup {
			t.Fatalf("straight run measured %d cycles, want %d", r.want.Result.Cycles, r.total-r.warmup)
		}
	}
	for _, tc := range []struct {
		name      string
		run       *run
		restoreAt int64 // 0 = fresh system
		every     int64
		stops     []int64 // nil = check the chunking properties only
		peek      bool    // atChunk calls Results
	}{
		{"every=1", short, 0, 1, nil, false},
		{"every=7", short, 0, 7, nil, false},
		{"every=warmup-1", short, 0, short.warmup - 1, []int64{1_999, 2_000, 3_999, 5_998, 7_997}, false},
		{"every=warmup", short, 0, short.warmup, []int64{2_000, 4_000, 6_000, 8_000}, false},
		{"every=warmup+1", short, 0, short.warmup + 1, []int64{2_000, 4_001, 6_002, 8_003}, false},
		{"every=total+1", short, 0, short.total + 1, []int64{2_000}, false},
		{"unchunked", short, 0, 0, []int64{2_000}, false},
		{"restored mid-warm-up", short, 1_234, 3_000, []int64{2_000, 5_000, 8_000}, false},
		{"restored mid-window", short, 4_321, 3_000, []int64{7_321}, false},
		{"results peeked mid-warm-up", short, 0, 700, []int64{700, 1_400, 2_000, 2_700, 3_400, 4_100, 4_800, 5_500, 6_200, 6_900, 7_600, 8_300}, true},
		{"FCFS/every=7", long, 0, 7, nil, false},
		{"FCFS/every=997", long, 0, 997, nil, false},
		{"FCFS/every=1777", long, 0, 1_777, nil, false},
		{"FCFS/restored mid-window", long, 30_001, 1_777, nil, false},
	} {
		tc, r := tc, tc.run
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.restoreAt > 0 {
				// Interrupt a chunked run at restoreAt and continue in a
				// fresh system, as a resumed process would.
				if err := s.RunTo(r.warmup, tc.restoreAt, 500, nil); err != nil {
					t.Fatal(err)
				}
				if s, err = Restore(r.cfg, bytes.NewReader(checkpoint(t, s))); err != nil {
					t.Fatal(err)
				}
			}
			start := s.Cycle()
			var stops []int64
			err = s.RunTo(r.warmup, r.total, tc.every, func() (int64, error) {
				if tc.peek {
					if res := s.Results(); s.Cycle() < r.warmup && res.Cycles != s.Cycle() {
						t.Errorf("warm-up peek at cycle %d covers %d cycles", s.Cycle(), res.Cycles)
					}
				}
				if s.MeasurementStarted() != (s.Cycle() >= r.warmup) {
					t.Errorf("at cycle %d MeasurementStarted = %v", s.Cycle(), s.MeasurementStarted())
				}
				stops = append(stops, s.Cycle())
				return tc.every, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.stops != nil && !reflect.DeepEqual(stops, tc.stops) {
				t.Errorf("atChunk fired at %v, want %v", stops, tc.stops)
			}
			prev, sawWarmup := start, start >= r.warmup
			for _, c := range stops {
				if c <= prev || c >= r.total || (tc.every > 0 && c-prev > tc.every) {
					t.Fatalf("chunk end %d after %d breaks (prev, prev+%d] below %d", c, prev, tc.every, r.total)
				}
				sawWarmup = sawWarmup || c == r.warmup
				prev = c
			}
			if !sawWarmup {
				t.Errorf("no chunk ended on the warm-up boundary: %v", stops)
			}
			compareRuns(t, captureRun(t, s), r.want)
		})
	}

	// An atChunk error stops the run where it is.
	s, err := New(short.cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := s.RunTo(short.warmup, short.total, 700, func() (int64, error) { return 0, boom }); !errors.Is(err, boom) || s.Cycle() != 700 {
		t.Errorf("RunTo = %v at cycle %d, want boom at 700", err, s.Cycle())
	}
}
