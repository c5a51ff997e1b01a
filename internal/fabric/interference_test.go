package fabric

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestShardedSweepInterference runs the determinism battery with delay
// attribution on: workers must upload each chunk's interference artifact,
// the merge must place it beside the other artifacts byte-identical to
// the serial sweep, and the reduced arena.csv/arena.json must carry
// the interference_index column computed through the same shared
// reducer the serial path uses.
func TestShardedSweepInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	job := quickJob()
	job.Interference = true
	want := serialArtifacts(t, job)
	wantIntf := 0
	for name := range want {
		if strings.HasSuffix(name, ".interference.json") {
			wantIntf++
		}
	}
	if wantIntf == 0 {
		t.Fatal("serial reference sweep left no .interference.json artifacts")
	}
	if !strings.Contains(string(want["arena.csv"]), "interference_index") {
		t.Fatal("serial arena.csv is missing the interference_index column")
	}

	c, err := NewCoordinator(CoordinatorConfig{Job: job, LeaseSeed: 41})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	runWorkers(t, srv.URL, 3)

	if !c.Done() {
		t.Fatal("workers exited but the coordinator is not done")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("queue invariants violated: %v", err)
	}
	merged := t.TempDir()
	if err := c.WriteMerged(merged); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, want, merged)
}

// TestCoordinatorMetricsEndpoint scrapes the coordinator's Prometheus
// endpoint before, during, and after a sweep: the queue gauges must
// track the chunk lifecycle and the scrape itself must never disturb
// the protocol (the final merge still matches the serial run).
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	job := quickJob()
	job.SampleInterval = 0
	c, err := NewCoordinator(CoordinatorConfig{Job: job, LeaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("/metrics: content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	before := scrape()
	for _, want := range []string{
		"fqms_sweepd_chunks_pending 8",
		"fqms_sweepd_chunks_done 0",
		"fqms_sweepd_workers_active 0",
		"fqms_sweepd_job_failed 0",
		"fqms_sweepd_leases_granted_total 0",
	} {
		if !strings.Contains(before, want) {
			t.Errorf("/metrics before the sweep missing %q", want)
		}
	}

	runWorkers(t, srv.URL, 2)

	after := scrape()
	for _, want := range []string{
		"fqms_sweepd_chunks_pending 0",
		"fqms_sweepd_chunks_leased 0",
		"fqms_sweepd_chunks_done 8",
		"fqms_sweepd_leases_granted_total 8",
		"fqms_sweepd_attempts_total 8",
		"fqms_sweepd_store_blobs",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("/metrics after the sweep missing %q\n%s", want, after)
		}
	}
}
