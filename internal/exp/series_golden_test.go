package exp

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestSeriesBytesGolden holds every encoding of a sampler's retained
// epochs — /series, /fairness and /metrics with and without ?since=, a
// run's .series.json and .fairness.csv, and fqsim's -series-out file —
// to the bytes in testdata/series. Two rows: a synthetic registry (a
// counter, a gauge, a Func and a histogram, a metric registered after
// the first sample, an epoch without histogram activity, and a ring of
// four that wraps), and art+vpr under FQ-VFTF with attribution on.
// It touches only public surfaces, so the same file runs against any
// reader implementation; bless a deliberate change with
//
//	go test ./internal/exp -run TestSeriesBytesGolden -update
func TestSeriesBytesGolden(t *testing.T) {
	got := map[string][]byte{}

	reg := metrics.New()
	reqs := reg.Counter("z.reqs")
	occ := reg.Gauge("a.occ")
	lat := reg.Histogram("m.lat")
	fn := int64(0)
	reg.Func("b.cycle", func() int64 { return fn })
	s := metrics.NewSampler(reg, metrics.SamplerConfig{Interval: 10, Capacity: 4})
	s.Sample(0)
	var late *metrics.Counter
	for i := int64(1); i <= 6; i++ {
		if i == 4 { // the oldest retained epoch, 3, ends before it
			late = reg.Counter("c.late")
		}
		reqs.Add(i)
		occ.Set(-i)
		fn = 10 * i
		if i != 3 { // epoch 3 has no histogram activity
			lat.Observe(i * i * 100)
			lat.Observe(0)
		}
		if late != nil && i%2 == 0 {
			late.Inc()
		}
		s.Sample(10 * i)
	}
	scrape(t, s, "synthetic", 40, got)

	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	const warmup, window, interval = 10_000, 30_000, 10_000
	sys, _, err := sim.RunSystem(sim.Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         sim.FQVFTF,
		Seed:           3,
		SampleInterval: interval,
		Interference:   true,
	}, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	scrape(t, sys.Sampler(), "artvpr", 20_000, got)
	out := filepath.Join(t.TempDir(), "out.series.json")
	if err := WriteSeriesJSON(out, sys); err != nil {
		t.Fatal(err)
	}
	if got["artvpr.series-out.json"], err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := NewRunner(Config{Warmup: warmup, Window: window, Seed: 3, SampleInterval: interval, Interference: true, Dir: dir})
	if _, err := r.CoRun([]string{"art", "vpr"}, "FQ-VFTF"); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".series.json", ".fairness.csv"} {
		if got["artvpr.run"+suffix], err = os.ReadFile(filepath.Join(dir, "co_art+vpr_FQ-VFTF"+suffix)); err != nil {
			t.Fatal(err)
		}
	}

	golden := filepath.Join("testdata", "series")
	for name, b := range got {
		path := filepath.Join(golden, name)
		if *updateGolden {
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			n := 0
			for n < len(b) && n < len(want) && b[n] == want[n] {
				n++
			}
			t.Errorf("%s: %d bytes, golden %d; first difference at byte %d (line %d)",
				name, len(b), len(want), n, bytes.Count(want[:n], []byte("\n"))+1)
		}
	}
}

// scrape records a status server's sampler endpoints into got, keyed
// by row name and endpoint.
func scrape(t *testing.T, s *metrics.Sampler, row string, since int64, got map[string][]byte) {
	t.Helper()
	srv, err := telemetry.Start(telemetry.Config{Addr: "127.0.0.1:0", Sampler: s})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client := &http.Client{}
	defer client.CloseIdleConnections()
	q := "?since=" + strconv.FormatInt(since, 10)
	for name, path := range map[string]string{
		".series.json":         "/series",
		".series-since.json":   "/series" + q,
		".fairness.json":       "/fairness",
		".fairness-since.json": "/fairness" + q,
		".metrics.txt":         "/metrics",
	} {
		resp, err := client.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		got[row+name] = b
	}
}
