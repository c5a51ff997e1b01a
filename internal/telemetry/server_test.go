package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// startSim builds a small instrumented two-thread system with epoch
// sampling enabled and steps it through its warmup so the sampler and
// fairness monitor hold real data.
func startSim(t *testing.T, cycles int64, interference bool) *sim.System {
	t.Helper()
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
		Interference:   interference,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(cycles)
	return s
}

func get(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints scrapes every endpoint of a server backed by a
// real simulation and checks each payload is well-formed and consistent
// with the simulation's state.
func TestServerEndpoints(t *testing.T) {
	s := startSim(t, 30_000, false)
	progress := NewProgress(3)
	progress.Start("fig5")
	progress.AddCycles(30_000)

	srv, err := Start(Config{
		Addr:     "127.0.0.1:0",
		Sampler:  s.Sampler(),
		Fairness: s.Fairness(),
		Progress: progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body := get(t, client, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"fqms_sim_cycle 30000",
		"# TYPE fqms_memctrl_cmd_ACT gauge",
		"fqms_progress_sim_cycles 30000",
		"fqms_fairness_thread0_cum_shortfall",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, client, srv.URL()+"/series")
	if code != http.StatusOK {
		t.Fatalf("/series: status %d", code)
	}
	var series struct {
		Interval int64            `json:"interval"`
		Epochs   int64            `json:"epochs"`
		Samples  []metrics.Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series: invalid JSON: %v", err)
	}
	if series.Interval != 5_000 || series.Epochs != 7 || len(series.Samples) != 7 {
		t.Errorf("/series: interval=%d epochs=%d samples=%d, want 5000/7/7",
			series.Interval, series.Epochs, len(series.Samples))
	}
	// ?since= filters by boundary cycle.
	code, body = get(t, client, srv.URL()+"/series?since=20000")
	if code != http.StatusOK {
		t.Fatalf("/series?since: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series?since: invalid JSON: %v", err)
	}
	if len(series.Samples) != 2 {
		t.Errorf("/series?since=20000 returned %d samples, want 2", len(series.Samples))
	}

	code, body = get(t, client, srv.URL()+"/fairness")
	if code != http.StatusOK {
		t.Fatalf("/fairness: status %d", code)
	}
	var fair struct {
		Summary memctrl.FairnessSummary  `json:"summary"`
		Samples []memctrl.FairnessSample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &fair); err != nil {
		t.Fatalf("/fairness: invalid JSON: %v", err)
	}
	if fair.Summary.Threads != 2 || len(fair.Samples) != 7 {
		t.Errorf("/fairness: threads=%d samples=%d, want 2/7", fair.Summary.Threads, len(fair.Samples))
	}

	code, body = get(t, client, srv.URL()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	var prog ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress: invalid JSON: %v", err)
	}
	if prog.Total != 3 || prog.Current != "fig5" || prog.SimCycles != 30_000 {
		t.Errorf("/progress: %+v", prog)
	}

	if code, _ = get(t, client, srv.URL()+"/"); code != http.StatusOK {
		t.Errorf("index: status %d", code)
	}
	if code, _ = get(t, client, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof: status %d", code)
	}
	if code, _ = get(t, client, srv.URL()+"/no-such-page"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestServerConcurrentScrape hammers the server from several clients
// while the simulation keeps stepping on its own goroutine — the
// publication contract under test is that scrapes only ever touch
// mutex-guarded copies, never the live registry. Run with -race this
// is the Func-gauge safety test the observability layer promises.
func TestServerConcurrentScrape(t *testing.T) {
	s := startSim(t, 10_000, true)
	srv, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Sampler:      s.Sampler(),
		Fairness:     s.Fairness(),
		Interference: s.Controller(),
		Progress:     NewProgress(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	stop := make(chan struct{})
	var simDone sync.WaitGroup
	simDone.Add(1)
	go func() {
		defer simDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Step(2_000)
			}
		}
	}()

	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func(i int) {
			defer scrapers.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			paths := []string{"/metrics", "/series", "/fairness", "/interference", "/progress"}
			for n := 0; n < 25; n++ {
				path := paths[(i+n)%len(paths)]
				resp, err := client.Get(srv.URL() + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape %s: read: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, resp.StatusCode)
				}
				if len(body) == 0 {
					t.Errorf("scrape %s: empty body", path)
				}
			}
		}(i)
	}
	scrapers.Wait()
	close(stop)
	simDone.Wait()
}

// TestServerShutdown checks the server exits cleanly: Shutdown returns
// without error, the port stops accepting, and no goroutines leak.
func TestServerShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := Start(Config{Addr: "127.0.0.1:0", Progress: NewProgress(0)})
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL()
	client := &http.Client{Timeout: 2 * time.Second}
	if code, body := get(t, client, url+"/metrics"); code != http.StatusOK || !strings.Contains(body, "fqms_progress_done") {
		t.Fatalf("pre-shutdown scrape failed: status %d body %q", code, body)
	}
	client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := client.Get(url + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}

	// The serve goroutine and any per-connection goroutines must wind
	// down; poll because connection teardown is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Shutting down twice is harmless.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestServerBindFailure: a bad address reports an error instead of
// panicking or leaking a goroutine.
func TestServerBindFailure(t *testing.T) {
	if _, err := Start(Config{Addr: "256.0.0.1:bogus"}); err == nil {
		t.Fatal("expected bind error")
	}
}

// TestServeAnyHandler: Serve is the scaffold alone — bind, serve what it
// is given (the sweep coordinator's handler in production), shut down —
// and knows none of the status endpoints.
func TestServeAnyHandler(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "handler saw "+r.URL.Path)
	}))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	if code, body := get(t, client, srv.URL()+"/metrics"); code != http.StatusOK || body != "handler saw /metrics" {
		t.Fatalf("status %d body %q", code, body)
	}
	client.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := Serve("256.0.0.1:bogus", http.NotFoundHandler()); err == nil {
		t.Fatal("expected bind error")
	}
}
