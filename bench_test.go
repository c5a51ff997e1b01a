package fqms

import (
	"strconv"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The benchmarks below regenerate the paper's tables and figures at
// reduced measurement windows (fast enough for -bench=.); the
// cmd/experiments binary runs the same drivers at full windows. Each
// benchmark reports the figure's headline quantity via ReportMetric so
// `go test -bench` output doubles as a miniature results table.

func benchRunner() *exp.Runner {
	return exp.NewRunner(exp.Config{Warmup: 10_000, Window: 60_000})
}

// BenchmarkFigure1 regenerates Figure 1: vpr alone / with crafty / with
// art under FR-FCFS.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		f1, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f1.Rows[2].RelIPC, "vpr-relIPC-with-art")
		b.ReportMetric(f1.Rows[2].ReadLat/f1.Rows[0].ReadLat, "vpr-latency-blowup")
	}
}

// BenchmarkFigure4 regenerates Figure 4: solo data bus utilization of
// the twenty benchmarks.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		f4, err := r.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f4.Rows[0].BusUtil, "art-solo-util")
		b.ReportMetric(f4.Rows[len(f4.Rows)-1].BusUtil, "crafty-solo-util")
	}
}

// BenchmarkFigure5 regenerates Figures 5-7's underlying 2-core runs (19
// subjects x 3 schedulers against the art background) and reports the
// Figure 5 QoS statistics.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		tc, err := r.TwoCore()
		if err != nil {
			b.Fatal(err)
		}
		met, total := tc.QoSCount("FQ-VFTF", 0.95)
		b.ReportMetric(float64(met), "fq-qos-met")
		b.ReportMetric(float64(total), "subjects")
		a, _ := tc.MeanNormIPC("FR-FCFS")
		b.ReportMetric(a, "frfcfs-mean-normIPC")
	}
}

// BenchmarkFigure6 reports the background (art) thread's mean
// normalized IPC from the same runs as Figure 5.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		tc, err := r.TwoCore()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		rows := tc.ByPolicy("FQ-VFTF")
		for _, row := range rows {
			sum += row.BgNormIPC
		}
		b.ReportMetric(sum/float64(len(rows)), "fq-bg-mean-normIPC")
	}
}

// BenchmarkFigure7 reports the aggregate performance improvement and
// utilizations (Figure 7).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		tc, err := r.TwoCore()
		if err != nil {
			b.Fatal(err)
		}
		mean, max := tc.Improvement("FQ-VFTF", "FR-FCFS")
		b.ReportMetric(mean*100, "fq-avg-improvement-%")
		b.ReportMetric(max*100, "fq-max-improvement-%")
		b.ReportMetric(tc.MeanAggBusUtil("FQ-VFTF")*100, "fq-bus-util-%")
		b.ReportMetric(tc.MeanAggBankUtil("FQ-VFTF")*100, "fq-bank-util-%")
	}
}

// BenchmarkFigure8 regenerates the four-core workloads (Figure 8).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		f8, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		_, mean, max := f8.Improvements("FQ-VFTF", "FR-FCFS")
		met, total := f8.QoSCount("FQ-VFTF", 0.95)
		b.ReportMetric(mean*100, "fq-avg-improvement-%")
		b.ReportMetric(max*100, "fq-max-improvement-%")
		b.ReportMetric(float64(met), "fq-qos-met")
		b.ReportMetric(float64(total), "threads")
	}
}

// BenchmarkFigure9 regenerates the fairness scatter (Figure 9) and its
// variance headline (paper: 0.20 -> 0.0058).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		f8, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		f9, err := r.Figure9(f8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f9.Variance("FR-FCFS"), "frfcfs-variance")
		b.ReportMetric(f9.Variance("FQ-VFTF"), "fq-variance")
	}
}

// BenchmarkTable6Timing exercises the Table 6 DDR2 model: the cost of
// legality checks and command issue on the device state machines.
func BenchmarkTable6Timing(b *testing.B) {
	ch, err := dram.NewChannel(dram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	now := int64(0)
	bank, row := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, open := ch.BankOpen(bank); !open {
			now = maxI64(now, ch.EarliestIssue(dram.KindActivate, bank))
			ch.Issue(dram.KindActivate, bank, row, now)
			now++
			continue
		}
		now = maxI64(now, ch.EarliestIssue(dram.KindRead, bank))
		ch.Issue(dram.KindRead, bank, row, now)
		now = maxI64(now+1, ch.EarliestIssue(dram.KindPrecharge, bank))
		ch.Issue(dram.KindPrecharge, bank, 0, now)
		now++
		bank = (bank + 1) % 8
		row = (row + 1) % 1024
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md section 5)
// ---------------------------------------------------------------------

// runVprArt runs the vpr+art pair under the given policy factory and
// returns vpr's IPC plus the aggregate bus utilization.
func runVprArt(b *testing.B, factory sim.PolicyFactory, mem memctrl.Config) (float64, float64) {
	b.Helper()
	vpr, _ := trace.ByName("vpr")
	art, _ := trace.ByName("art")
	res, err := sim.Run(sim.Config{
		Workload: []trace.Profile{vpr, art},
		Policy:   factory,
		Mem:      mem,
	}, 10_000, 60_000)
	if err != nil {
		b.Fatal(err)
	}
	return res.Threads[0].IPC, res.DataBusUtil
}

// BenchmarkAblationInversionBound sweeps the FQ bank scheduler's
// priority-inversion bound x (the paper fixes x = tRAS = 18).
func BenchmarkAblationInversionBound(b *testing.B) {
	for _, x := range []int64{0, 9, 18, 36, 72, 1 << 20} {
		name := "x=" + strconv.FormatInt(x, 10)
		if x == 1<<20 {
			name = "x=inf(FR-VFTF-like)"
		}
		b.Run(name, func(b *testing.B) {
			factory := func(s []core.Share, n int, t dram.Timing) core.Policy {
				return core.NewFQVFTFBound(s, n, t, x)
			}
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, factory, memctrl.Config{})
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkAblationRowPolicy compares the closed-row default against an
// open-row policy under FQ-VFTF.
func BenchmarkAblationRowPolicy(b *testing.B) {
	for _, rp := range []memctrl.RowPolicy{memctrl.ClosedRow, memctrl.OpenRow} {
		b.Run(rp.String(), func(b *testing.B) {
			mem := memctrl.DefaultConfig(2)
			mem.RowPolicy = rp
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, sim.FQVFTF, mem)
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkAblationArrivalVFT compares the paper's deferred
// virtual-finish-time computation (used by FR-VFTF/FQ-VFTF) against the
// rejected arrival-time average-service estimate.
func BenchmarkAblationArrivalVFT(b *testing.B) {
	variants := []struct {
		name    string
		factory sim.PolicyFactory
	}{
		{"deferred", sim.FRVFTF},
		{"arrival-estimate", func(s []core.Share, n int, t dram.Timing) core.Policy {
			return core.NewFRVFTFArrival(s, n, t)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, v.factory, memctrl.Config{})
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkAblationStartTimeFirst compares finish-time-first against
// the start-time-first alternative mentioned in Section 2.3.
func BenchmarkAblationStartTimeFirst(b *testing.B) {
	for _, v := range []struct {
		name    string
		factory sim.PolicyFactory
	}{{"VFTF", sim.FRVFTF}, {"VSTF", sim.FRVSTF}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, v.factory, memctrl.Config{})
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkSchedulers measures raw simulator throughput (cycles/sec)
// under each policy on a 4-core workload.
func BenchmarkSchedulers(b *testing.B) {
	wl := trace.FourCoreWorkloads()[0]
	profiles := make([]trace.Profile, len(wl))
	for i, n := range wl {
		profiles[i], _ = trace.ByName(n)
	}
	for _, v := range []struct {
		name    string
		factory sim.PolicyFactory
	}{
		{"FCFS", sim.FCFS}, {"FR-FCFS", sim.FRFCFS},
		{"FR-VFTF", sim.FRVFTF}, {"FQ-VFTF", sim.FQVFTF},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, err := sim.New(sim.Config{Workload: profiles, Policy: v.factory})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(1000)
			}
			b.ReportMetric(float64(s.Cycle())*1000/float64(b.Elapsed().Microseconds()+1), "kcycles/s")
		})
	}
}

// BenchmarkAblationSharedBuffers compares the paper's static per-thread
// buffer partitioning against a pooled buffer (the paper defers
// "more flexible partitioning" to future research): pooling lets the
// hog monopolize controller entries and erodes the victim's QoS.
func BenchmarkAblationSharedBuffers(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "partitioned"
		if shared {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			mem := memctrl.DefaultConfig(2)
			mem.SharedBuffers = shared
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, sim.FQVFTF, mem)
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkAblationAddressMap compares the XOR bank permutation (Lin et
// al., the paper's choice) against a plain linear map.
func BenchmarkAblationAddressMap(b *testing.B) {
	for _, name := range []string{"xor", "linear"} {
		b.Run(name, func(b *testing.B) {
			mem := memctrl.DefaultConfig(2)
			if name == "linear" {
				g := addrmap.Geometry{
					Channels:     1,
					Ranks:        mem.DRAM.Ranks,
					BanksPerRank: mem.DRAM.BanksPerRank,
					RowsPerBank:  mem.DRAM.RowsPerBank,
					ColsPerRow:   mem.DRAM.ColsPerRow,
				}
				m, err := addrmap.NewLinear(g)
				if err != nil {
					b.Fatal(err)
				}
				mem.Mapper = m
			}
			for i := 0; i < b.N; i++ {
				ipc, util := runVprArt(b, sim.FQVFTF, mem)
				b.ReportMetric(ipc, "vpr-IPC")
				b.ReportMetric(util, "bus-util")
			}
		})
	}
}

// BenchmarkExtensionMultiChannel scales the channel count (the paper's
// future-work direction) on a bandwidth-bound 4-core workload.
func BenchmarkExtensionMultiChannel(b *testing.B) {
	wl := trace.FourCoreWorkloads()[0]
	profiles := make([]trace.Profile, len(wl))
	for i, n := range wl {
		profiles[i], _ = trace.ByName(n)
	}
	for _, nch := range []int{1, 2, 4} {
		b.Run("channels="+strconv.Itoa(nch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{Workload: profiles, Policy: sim.FQVFTF}
				cfg.Mem.Channels = nch
				res, err := sim.Run(cfg, 10_000, 60_000)
				if err != nil {
					b.Fatal(err)
				}
				var ipc float64
				for _, t := range res.Threads {
					ipc += t.IPC
				}
				b.ReportMetric(ipc, "aggregate-IPC")
				b.ReportMetric(res.DataBusUtil, "bus-util")
			}
		})
	}
}

// BenchmarkExtensionShareSweep regenerates the share-sweep QoS
// validation (proportional bandwidth delivery under FQ-VFTF).
func BenchmarkExtensionShareSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		sw, err := r.ShareSweep("")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sw.Rows[len(sw.Rows)-1].UtilRatio, "7to1-split-delivered-ratio")
		b.ReportMetric(sw.Rows[3].UtilRatio, "equal-split-delivered-ratio")
	}
}
