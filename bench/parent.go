package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// parent runs workloads in child processes of this same binary, one
// fresh process per run, so that no run inherits another's heap, page
// cache of the store, or peak RSS.
type parent struct {
	root    string
	sp      spec
	seconds float64
	shrink  int64
	asJSON  bool // all prints one JSON document and nothing else
}

// only narrows the parent to one workload.
func (p *parent) only(name string) {
	all := p.sp.Workloads
	p.sp.Workloads = nil
	for _, w := range all {
		if w.Name == name {
			p.sp.Workloads = append(p.sp.Workloads, w)
		}
	}
}

// child runs one pass of one workload and parses the result line; echo
// copies the child's own lines to standard output. The child has ended by
// the time this returns.
func (p parent) child(wl string, seed uint64, trace int, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", wl, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(p.seconds),
		"-trace", fmt.Sprint(trace), "-shrink", fmt.Sprint(p.shrink))
	cmd.Dir = p.root
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w\n%s", wl, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): last line is not a result: %w", wl, trace, err)
	}
	return res, nil
}

// all runs every workload once per pass and prints every metric by name.
func (p parent) all(seed uint64, passes []int) error {
	type both struct {
		Untraced *result `json:"untraced,omitempty"`
		Traced   *result `json:"traced,omitempty"`
	}
	doc := struct {
		Header  header          `json:"header"`
		Results map[string]both `json:"results"`
	}{Header: newHeader(seed), Results: make(map[string]both)}
	if !p.asJSON {
		doc.Header.print(os.Stdout)
	}
	failed := 0
	for _, w := range p.sp.Workloads {
		var b both
		for _, pass := range passes {
			res, err := p.child(w.Name, seed, pass, !p.asJSON)
			if err != nil {
				return err
			}
			failed += res.Failed
			if pass == 0 {
				b.Untraced = &res
			} else {
				b.Traced = &res
			}
		}
		doc.Results[w.Name] = b
	}
	if p.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfcheck runs two back-to-back sets of untraced runs of this same
// code, the same seeds in each, and holds them to the acceptance rule a
// benchmark is judged by: per workload and end-to-end metric, the spread
// of a set (interquartile range as a share of the median) stays within
// the metric's bound, setup_s excepted, and the second set's median is
// not worse than the first's by more than the bound.
func (p parent) selfcheck(seed uint64, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs -runs of at least 2")
	}
	newHeader(seed).print(os.Stdout)
	type key struct{ wl, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = make(map[key][]float64)
		for _, w := range p.sp.Workloads {
			for i := 0; i < runs; i++ {
				res, err := p.child(w.Name, seed+uint64(i), 0, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d operations failed", w.Name, seed+uint64(i), res.Failed)
				}
				for name, m := range res.Metrics {
					k := key{w.Name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}
	fmt.Printf("%-16s %-18s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound")
	bad := 0
	for _, w := range p.sp.Workloads {
		for _, d := range p.sp.EndToEnd {
			k := key{w.Name, d.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // positive = B worse, for a lower-is-better metric
			if d.Better == "higher" {
				worse = -worse
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.Name, d.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics disagree between two sets of the same code", bad)
	}
	return nil
}
