package main

import (
	"io"
	"regexp"
	"testing"
)

// TestSmoke runs both passes of every workload at 1/50 of the committed
// size and holds the names each emits to the declaration in
// BENCHMARK.json: none missing, none undeclared, every per-layer metric
// measured by at least one workload, and every output check passing.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDecl(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}

	measured := make(map[string]bool) // per-layer metrics some workload reported non-zero
	for _, w := range sp.Workloads {
		wl, ok := workloadByName(w.Name)
		if !ok {
			t.Errorf("workload %q is declared but the harness does not have it", w.Name)
			continue
		}
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
		for _, traced := range []bool{false, true} {
			decls := sp.EndToEnd
			if traced {
				decls = sp.PerLayer
			}
			res := runWorkload(root, sp, wl, 1, 0.2, traced, 50, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				// Run it again with the failures on the test log.
				runWorkload(root, sp, wl, 1, 0.2, traced, 50, testWriter{t})
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %q is declared but was not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %q is 0", w.Name, d.Name)
				case traced && m.Value != 0:
					measured[d.Name] = true
				}
			}
		}
	}
	for _, d := range sp.PerLayer {
		// No lease is ever lost in-process, so a retry count of 0 is the
		// measurement.
		if !measured[d.Name] && d.Name != "fabric.retries" {
			t.Errorf("per-layer metric %q is declared but no workload measures it", d.Name)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
