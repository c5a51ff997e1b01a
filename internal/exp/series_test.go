package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSeriesExport runs one co-run through a sampling runner with a
// series directory and checks the artifacts and, critically, that
// enabling sampling leaves the figure-facing Result bit-identical to a
// plain runner's.
func TestSeriesExport(t *testing.T) {
	dir := t.TempDir()

	plain := NewRunner(QuickConfig())
	want, err := plain.CoRun([]string{"art", "vpr"}, "FQ-VFTF")
	if err != nil {
		t.Fatal(err)
	}

	cfg := QuickConfig()
	cfg.SampleInterval = 10_000
	cfg.Dir = dir
	sampled := NewRunner(cfg)
	got, err := sampled.CoRun([]string{"art", "vpr"}, "FQ-VFTF")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sampling changed the Result:\n off: %+v\n on:  %+v", want, got)
	}

	stem := filepath.Join(dir, "co_art+vpr_FQ-VFTF")
	raw, err := os.ReadFile(stem + ".series.json")
	if err != nil {
		t.Fatalf("series artifact missing: %v", err)
	}
	var doc seriesDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	qc := QuickConfig()
	wantEpochs := int((qc.Warmup+qc.Window)/cfg.SampleInterval) + 1
	if doc.Key != "co/art+vpr/FQ-VFTF" || doc.Interval != cfg.SampleInterval || len(doc.Samples) != wantEpochs {
		t.Errorf("series doc key=%q interval=%d samples=%d, want co/art+vpr/FQ-VFTF %d %d",
			doc.Key, doc.Interval, len(doc.Samples), cfg.SampleInterval, wantEpochs)
	}
	if doc.Policy != "FQ-VFTF" {
		t.Errorf("series doc policy %q, want FQ-VFTF", doc.Policy)
	}
	if len(doc.Fairness.Samples) != wantEpochs || doc.Fairness.Summary.Threads != 2 {
		t.Errorf("fairness series %d samples / %d threads, want %d / 2",
			len(doc.Fairness.Samples), doc.Fairness.Summary.Threads, wantEpochs)
	}

	csvRaw, err := os.ReadFile(stem + ".fairness.csv")
	if err != nil {
		t.Fatalf("fairness csv missing: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if lines[0] != "policy,epoch,cycle,thread,service,share,phi,excess,backlogged,cum_shortfall,top_aggressor,stolen_cycles" {
		t.Errorf("fairness csv header %q", lines[0])
	}
	if want := 1 + wantEpochs*2; len(lines) != want {
		t.Errorf("fairness csv has %d lines, want %d", len(lines), want)
	}
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, "FQ-VFTF,") {
			t.Errorf("fairness csv row %d missing policy label: %q", i+1, line)
			break
		}
	}
}

func TestSanitizeKey(t *testing.T) {
	cases := map[string]string{
		"co/art+vpr/FQ-VFTF": "co_art+vpr_FQ-VFTF",
		"solo/mcf/x4":        "solo_mcf_x4",
		"weird key\\here":    "weird_key_here",
	}
	for in, want := range cases {
		if got := sanitizeKey(in); got != want {
			t.Errorf("sanitizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}
