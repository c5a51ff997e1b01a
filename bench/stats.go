package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), because that is what the acceptance rule for a benchmark's
// spread is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MB since the
// last resetPeakRSS: the kernel's high-water mark (VmHWM), or where /proc
// does not give it, the lifetime peak from getrusage (KB on Linux).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the high-water mark at the current resident set
// size, so that each repeat's peak can be read on its own. Where the
// kernel refuses, the mark keeps the lifetime peak, which is still a
// valid (if less steady) reading.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// The calibration loop measures how fast the host is running right now.
// On a shared VM the same code runs 20-30 % slower for minutes at a
// time, and a plain arithmetic loop slows with it (correlation 0.9-0.99
// between the fastest times of a simulation and of this loop over
// minute-long windows), so host seconds are reported on the scale of a
// host that runs the loop in calibrationNominal seconds: the time of the
// loop on the host the workload sizes were chosen on, at its fastest. The
// loop is the benchmark's own and shares no code with the simulator, so
// a change to the simulator cannot move it.
const (
	calibrationIters   = 10_000_000
	calibrationNominal = 0.0275 // seconds for calibrationIters (2.75 ns each)
)

var calibrationSink uint64

// calibrate times the calibration loop once.
func calibrate() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	calibrationSink += acc
	return time.Since(t0).Seconds()
}

// epoch anchors nanotime; time.Since on a fixed base reads the monotonic
// clock only.
var epoch = time.Now()

// nanotime is the harness's span clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

// timerCost calibrates the cost of one nanotime call in nanoseconds: a
// span bracketed by two chained calls carries one call's worth of
// overhead, which the traced pass subtracts.
func timerCost() float64 {
	const n = 1 << 18
	best := 0.0
	for round := 0; round < 5; round++ {
		t0 := nanotime()
		var sink int64
		for i := 0; i < n; i++ {
			sink += nanotime()
		}
		per := float64(nanotime()-t0) / n
		_ = sink
		if round == 0 || per < best {
			best = per
		}
	}
	return best
}
