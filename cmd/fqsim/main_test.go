package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestParseShare(t *testing.T) {
	cases := []struct {
		in        string
		num, den  int
		wantError bool
	}{
		{"1/2", 1, 2, false},
		{"3/4", 3, 4, false},
		{"25", 25, 100, false},
		{"100", 100, 100, false},
		{"0/4", 0, 0, true},
		{"5/4", 0, 0, true},
		{"x/y", 0, 0, true},
		{"0", 0, 0, true},
		{"101", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, c := range cases {
		s, err := parseShare(c.in)
		if c.wantError {
			if err == nil {
				t.Errorf("parseShare(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShare(%q): %v", c.in, err)
			continue
		}
		if s.Num != c.num || s.Den != c.den {
			t.Errorf("parseShare(%q) = %v", c.in, s)
		}
	}
}

// TestWriteSeriesFile drives the -series-out path against a real
// sampled run and checks the document round-trips with the expected
// epoch count.
func TestWriteSeriesFile(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := sim.RunSystem(sim.Config{
		Workload:       []trace.Profile{art, art},
		Seed:           1,
		SampleInterval: 10_000,
	}, 10_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.series.json")
	if err := exp.WriteSeriesJSON(path, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Interval int64 `json:"interval"`
		Samples  []struct {
			Cycle int64 `json:"cycle"`
		} `json:"samples"`
		Fairness struct {
			Summary struct {
				Threads int `json:"threads"`
			} `json:"summary"`
		} `json:"fairness"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("series file invalid JSON: %v", err)
	}
	if doc.Interval != 10_000 || len(doc.Samples) != 5 || doc.Fairness.Summary.Threads != 2 {
		t.Errorf("series doc interval=%d samples=%d threads=%d, want 10000/5/2",
			doc.Interval, len(doc.Samples), doc.Fairness.Summary.Threads)
	}
}
