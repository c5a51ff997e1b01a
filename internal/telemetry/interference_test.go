package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestInterferenceEndpoint scrapes /interference and the
// fqms_interference_cycles_total family on /metrics from a server
// backed by a real attribution-enabled simulation, and checks the 404
// contract when the controller runs without attribution.
func TestInterferenceEndpoint(t *testing.T) {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		Workload:       []trace.Profile{vpr, art},
		Policy:         sim.FQVFTF,
		Seed:           11,
		SampleInterval: 5_000,
		Interference:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(30_000) // several epochs: the sampler publishes the matrix

	srv, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Sampler:      s.Sampler(),
		Fairness:     s.Fairness(),
		Interference: s.Controller(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body := get(t, client, srv.URL()+"/interference")
	if code != http.StatusOK {
		t.Fatalf("/interference: status %d", code)
	}
	var snap memctrl.InterferenceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/interference: invalid JSON: %v", err)
	}
	if snap.Threads != 2 || len(snap.Matrix) != 2 || len(snap.Cube) != 2 {
		t.Errorf("/interference: threads=%d matrix=%d cube=%d, want 2/2/2",
			snap.Threads, len(snap.Matrix), len(snap.Cube))
	}
	if snap.Total <= 0 || snap.Cross <= 0 {
		t.Errorf("/interference: total=%d cross=%d on a contended co-run, want both > 0",
			snap.Total, snap.Cross)
	}
	if len(snap.Causes) == 0 || len(snap.Matrix[0]) != snap.Threads+1 {
		t.Errorf("/interference: causes=%v row width=%d", snap.Causes, len(snap.Matrix[0]))
	}

	code, body = get(t, client, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE fqms_interference_cycles counter",
		`fqms_interference_cycles_total{victim="0",aggressor="1",cause="`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The index advertises the endpoint.
	if code, body = get(t, client, srv.URL()+"/"); code != http.StatusOK || !strings.Contains(body, "/interference") {
		t.Errorf("index (status %d) does not mention /interference", code)
	}
}

// TestInterferenceEndpointDisabled: without an attribution-enabled
// controller the endpoint 404s and /metrics carries no interference
// family — both for a nil Config.Interference and for a controller
// whose attribution is off.
func TestInterferenceEndpointDisabled(t *testing.T) {
	s := startSim(t, 10_000, false) // attribution off

	for _, ctrl := range []*memctrl.Controller{nil, s.Controller()} {
		srv, err := Start(Config{
			Addr:         "127.0.0.1:0",
			Sampler:      s.Sampler(),
			Fairness:     s.Fairness(),
			Interference: ctrl,
		})
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{}
		if code, _ := get(t, client, srv.URL()+"/interference"); code != http.StatusNotFound {
			t.Errorf("ctrl=%v: /interference status %d, want 404", ctrl != nil, code)
		}
		code, body := get(t, client, srv.URL()+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: status %d", code)
		}
		if strings.Contains(body, "fqms_interference_cycles") {
			t.Errorf("ctrl=%v: /metrics exposes interference counters without attribution", ctrl != nil)
		}
		client.CloseIdleConnections()
		srv.Shutdown(context.Background())
	}
}
