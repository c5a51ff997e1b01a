package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// layerCounts are cumulative counts read at the layer boundaries; the
// traced pass reports their deltas over the measured region.
type layerCounts struct {
	retired, stalls, instrs, l2Misses int64
	accepted, done, cmds, busBusy     int64
}

func readLayerCounts(sys *sim.System) layerCounts {
	ctrl := sys.Controller()
	var c layerCounts
	for i := 0; i < ctrl.Threads(); i++ {
		cpu := sys.Core(i)
		c.retired += cpu.Retired
		c.stalls += cpu.StallCycles
		if g, ok := cpu.Generator().(*trace.Generator); ok {
			c.instrs += int64(g.Count())
		}
		c.l2Misses += cpu.Hierarchy().L2MissCount
		st := ctrl.Stats(i)
		c.accepted += st.ReadsAccepted + st.WritesAccepted
		c.done += st.ReadsDone + st.WritesDone
	}
	for k := dram.KindActivate; k <= dram.KindRefresh; k++ {
		c.cmds += ctrl.CommandCount(k)
	}
	c.busBusy = ctrl.DataBusBusyCycles()
	return c
}

// since returns the counts accumulated after before was read.
func (c layerCounts) since(before layerCounts) layerCounts {
	return layerCounts{
		retired: c.retired - before.retired, stalls: c.stalls - before.stalls,
		instrs: c.instrs - before.instrs, l2Misses: c.l2Misses - before.l2Misses,
		accepted: c.accepted - before.accepted, done: c.done - before.done,
		cmds: c.cmds - before.cmds, busBusy: c.busBusy - before.busBusy,
	}
}

// ratio is a/b, or 0 when the workload gave b nothing to count.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedSim is the traced pass of a single-simulation workload: an
// untraced reference run, the traced stepping loop over the same inputs
// (observers off), stand-alone timings of the layers the loop cannot
// separate, and the comparisons the workload exists for.
func (r *run) tracedSim() {
	warmup, measured := r.cycles()
	kcycles := float64(measured) / 1000
	plain := func() (sim.Config, error) { return r.simConfig(observers{}) }

	cfg, err := plain()
	if err != nil {
		r.fail(err)
		return
	}
	ref, err := runSim(cfg, warmup, measured)
	r.op(err == nil, "reference run: %v", err)
	if err != nil {
		return
	}
	defer ref.sys.Close()

	// The traced loop, over a second system built from the same inputs.
	cfg, _ = plain()
	sys, err := sim.New(cfg)
	if err != nil {
		r.fail(err)
		return
	}
	l := newLoop(sys, r.seed)
	l.step(warmup)
	before := readLayerCounts(sys)
	l.startTracing()
	t0 := time.Now()
	l.step(measured)
	tracedWall := time.Since(t0).Seconds()
	n := readLayerCounts(sys).since(before)
	got, want := readCounters(sys), readCounters(ref.sys)
	r.op(reflect.DeepEqual(got, want), "traced loop counters %+v differ from System.Step's %+v", got, want)

	fmt.Fprintf(r.out, "%-14s traced loop: %d of %d stepped cycles sampled, timer call %.1f ns in the loop\n", r.wl.name, l.sampled, l.iters, l.timerNs())
	covered := 0.0
	for span, name := range spanMetric {
		ns := l.selfNs(span)
		covered += ns
		r.set(name, ns/kcycles)
	}
	r.set("memctrl.sched_frac", ratio(float64(l.schedTicks), float64(l.iters)))
	r.set("memctrl.nack_frac", ratio(float64(l.acceptNAK), float64(l.acceptTried)))
	r.set("memctrl.reqs_per_kcycle", float64(n.accepted)/kcycles)
	r.set("memctrl.cmds_per_req", ratio(float64(n.cmds), float64(n.done)))
	r.set("cpu.stall_frac", float64(n.stalls)/float64(measured*int64(len(l.cores))))
	r.set("cpu.ipc", float64(n.retired)/float64(measured))
	r.set("trace.instrs_per_kcycle", float64(n.instrs)/kcycles)
	r.set("cache.l2_miss_per_kinstr", ratio(float64(n.l2Misses), float64(n.instrs)/1000))
	r.set("dram.bus_util", float64(n.busBusy)/float64(measured*int64(l.ctrl.Channels())))
	r.set("dram.cmds_per_kcycle", float64(n.cmds)/kcycles)
	r.set("sim.stepped_frac", float64(l.iters)/float64(measured))
	r.set("sim.allocs_per_kcycle", float64(ref.mallocs)/kcycles)
	r.set("sim.span_cover_frac", covered/(tracedWall*1e9))
	r.set("sim.trace_overhead_x", tracedWall/ref.wall)

	r.benchTrace()
	r.benchCache()
	r.benchPolicy(ref.sys)
	r.benchDRAM()

	// Comparisons against one observers-off run of the same mix at half
	// length: single runs on a shared host differ by several percent, so
	// these ratios are indications, not gates.
	short := measured / 2
	base, ok := r.variant(observers{}, short, nil)
	if !ok {
		return
	}
	if strict, ok := r.variant(observers{}, short, func(c *sim.Config) { c.Strict = true }); ok {
		r.set("sim.fast_over_strict_x", base.cyclesPerSec()/strict.cyclesPerSec())
	}

	snapSys, snapObs := ref.sys, observers{}
	switch {
	case r.wl.policies:
		for _, name := range []string{"FR-FCFS", "FR-VFTF", "BLISS", "SLOW-FAIR", "BANK-BW"} {
			factory, err := sim.PolicyByName(name)
			if err != nil {
				r.fail(err)
				continue
			}
			if v, ok := r.variant(observers{}, short, func(c *sim.Config) { c.Policy = factory }); ok {
				r.set("memctrl.simcycles_per_s."+strings.ToLower(name), v.cyclesPerSec())
			}
		}
	case r.wl.par:
		cfg, _ = plain()
		cfg.Workers = width
		par, err := runSim(cfg, warmup, measured)
		r.op(err == nil, "Workers %d run: %v", width, err)
		if err == nil {
			defer par.sys.Close()
			r.op(par.digest == ref.digest, "sim_digest on %d workers %s differs from serial %s", width, par.digest, ref.digest)
			r.set("par.speedup_x", ref.wall/par.wall)
			r.set("par.cpu_x", par.cpu/ref.cpu)
		}
	case r.wl.observed:
		for _, o := range []struct {
			metric string
			obs    observers
		}{
			{"metrics.registry_overhead_x", observers{registry: true}},
			{"metrics.sampler_overhead_x", observers{sampler: true}},
			{"metrics.chrometrace_overhead_x", observers{chrometrace: true}},
			{"memctrl.interference_overhead_x", observers{interference: true}},
			{"audit.overhead_x", observers{audit: true}},
		} {
			if v, ok := r.variant(o.obs, short, nil); ok {
				r.op(v.digest == base.digest, "sim_digest %s with one observer differs from %s without (%s)", v.digest, base.digest, o.metric)
				r.set(o.metric, base.cyclesPerSec()/v.cyclesPerSec())
			}
		}
		// The workload's own configuration, every observer on, against
		// the observers-off reference of the same length.
		cfg, _ := r.simConfig(allObservers)
		on, err := runSim(cfg, warmup, measured)
		r.op(err == nil, "observed run: %v", err)
		if err == nil {
			defer on.sys.Close()
			r.op(on.digest == ref.digest, "sim_digest observed %s differs from observers-off %s", on.digest, ref.digest)
			snapSys, snapObs = on.sys, allObservers
		}
	}
	r.benchSnapshot(snapSys, snapObs)
}

// variant runs the workload's mix for cycles measured cycles with the
// given observers and, when change is not nil, one thing changed. The run
// is a counted operation and its system is closed.
func (r *run) variant(obs observers, cycles int64, change func(*sim.Config)) (simRun, bool) {
	warmup, _ := r.cycles()
	var v simRun
	cfg, err := r.simConfig(obs)
	if err == nil {
		if change != nil {
			change(&cfg)
		}
		if v, err = runSim(cfg, warmup, cycles); err == nil {
			v.sys.Close()
		}
	}
	r.op(err == nil, "variant run: %v", err)
	return v, err == nil
}

// standalone is how many calls the stand-alone layer timings make.
func (r *run) standalone() int { return int(2_000_000 / r.shrink) }

// benchTrace times Generator.Next alone over the mix's profiles.
func (r *run) benchTrace() {
	n := r.standalone()
	total := 0.0
	for i, name := range r.wl.mix {
		g, err := r.generator(name, i)
		if err != nil {
			r.fail(err)
			return
		}
		var ins trace.Instr
		t0 := nanotime()
		for j := 0; j < n; j++ {
			g.Next(&ins)
		}
		total += float64(nanotime() - t0)
	}
	r.set("trace.next_ns_per_instr", total/float64(n*len(r.wl.mix)))
}

func (r *run) generator(name string, thread int) (*trace.Generator, error) {
	p, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	return trace.NewGenerator(p, thread, r.seed+1)
}

// benchCache times Hierarchy.Access alone on the first profile's address
// stream, with every miss filled at once (the fill and the writebacks it
// causes are part of what an access costs).
func (r *run) benchCache() {
	g, err := r.generator(r.wl.mix[0], 0)
	if err != nil {
		r.fail(err)
		return
	}
	type access struct {
		class cache.AccessClass
		addr  uint64
	}
	stream := make([]access, 0, r.standalone())
	var ins trace.Instr
	for len(stream) < cap(stream) {
		g.Next(&ins)
		switch ins.Kind {
		case trace.KindLoad:
			stream = append(stream, access{cache.ClassLoad, ins.Addr})
		case trace.KindStore:
			stream = append(stream, access{cache.ClassStore, ins.Addr})
		}
	}
	h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		r.fail(err)
		return
	}
	t0 := nanotime()
	for _, a := range stream {
		res := h.Access(a.class, a.addr)
		if res.Hit || res.NACK || res.Merged {
			continue
		}
		h.FetchAccepted()
		h.Fill(res.Token)
		for {
			if _, ok := h.NextWriteback(); !ok {
				break
			}
			h.WritebackAccepted()
		}
	}
	r.set("cache.access_ns", float64(nanotime()-t0)/float64(len(stream)))
}

// benchPolicy times Policy.Key alone on unfrozen requests against the
// workload's policy in the state the reference run left it, and the
// window-boundary Tick of the three interval policies.
func (r *run) benchPolicy(sys *sim.System) {
	ctrl := sys.Controller()
	policy := ctrl.Policy()
	cfg := dram.DefaultConfig()
	banks := ctrl.Channels() * cfg.Banks()
	reqs := make([]core.Request, 4096)
	for i := range reqs {
		gb := i % banks
		reqs[i] = core.Request{
			ID: uint64(i + 1), Thread: i % ctrl.Threads(), IsWrite: i%5 == 0,
			Arrival: ctrl.VClock() + int64(i), GlobalBank: gb, Channel: gb / cfg.Banks(),
		}
	}
	n := r.standalone()
	var sink int64
	t0 := nanotime()
	for i := 0; i < n; i++ {
		sink += policy.Key(&reqs[i%len(reqs)], core.BankState(i%3))
	}
	r.set("core.key_ns", float64(nanotime()-t0)/float64(n))
	_ = sink

	threads := ctrl.Threads()
	tickers := []core.PolicyTicker{
		core.NewBLISS(threads),
		core.NewSlowFair(threads, cfg.Timing),
		core.NewBankBW(threads, banks),
	}
	ticks := n / 100
	if ticks < 1 {
		ticks = 1
	}
	t0 = nanotime()
	for _, p := range tickers {
		for i := 0; i < ticks; i++ {
			p.Tick(p.NextTickAt())
		}
	}
	r.set("core.policy_tick_ns", float64(nanotime()-t0)/float64(ticks*len(tickers)))
}

// benchDRAM times the device model's queries alone with the script the
// bank schedulers run: ask when a bank's next command may issue, look at
// its row, and issue it when the time comes.
func (r *run) benchDRAM() {
	ch, err := dram.NewChannel(dram.DefaultConfig())
	if err != nil {
		r.fail(err)
		return
	}
	banks := ch.Config().Banks()
	n := r.standalone()
	now := int64(0)
	queries := 0
	t0 := nanotime()
	for i := 0; queries < n; i++ {
		b := i % banks
		row, open := ch.BankOpen(b)
		kind := dram.KindActivate
		switch {
		case open && row == i/banks%4:
			kind = dram.KindRead
		case open:
			kind = dram.KindPrecharge
		}
		at := ch.EarliestIssue(kind, b)
		queries += 2
		if at > now {
			now = at
		}
		ch.Issue(kind, b, i/banks%4, now)
		queries++
		now++
	}
	r.set("dram.query_ns", float64(nanotime()-t0)/float64(queries))
}

// benchSnapshot times System.Checkpoint to memory and sim.Restore from
// it, and checks that the restored system checkpoints to the same bytes.
func (r *run) benchSnapshot(sys *sim.System, obs observers) {
	const rounds = 5
	var buf bytes.Buffer
	var enc, dec []float64
	for i := 0; i < rounds; i++ {
		buf.Reset()
		t0 := nanotime()
		if err := sys.Checkpoint(&buf); err != nil {
			r.fail(fmt.Errorf("checkpoint: %w", err))
			return
		}
		enc = append(enc, float64(nanotime()-t0)/1e9)
	}
	var again bytes.Buffer
	for i := 0; i < rounds; i++ {
		cfg, _ := r.simConfig(obs)
		t0 := nanotime()
		restored, err := sim.Restore(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			r.fail(fmt.Errorf("restore: %w", err))
			return
		}
		dec = append(dec, float64(nanotime()-t0)/1e9)
		if i == 0 {
			err = restored.Checkpoint(&again)
			r.op(err == nil && bytes.Equal(again.Bytes(), buf.Bytes()), "restored system checkpoints to different bytes (err %v)", err)
		}
		restored.Close()
	}
	mb := float64(buf.Len()) / 1e6
	r.set("snapshot.kb", float64(buf.Len())/1024)
	r.set("snapshot.encode_mb_per_s", mb/median(enc))
	r.set("snapshot.decode_mb_per_s", mb/median(dec))
}
