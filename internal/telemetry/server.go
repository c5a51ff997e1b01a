package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/memctrl"
	"repro/internal/metrics"
)

// Config wires the status server's data sources. Every field except
// Addr is optional: a nil source just leaves its endpoints empty (or
// returning 404 for /series and /fairness, whose payloads have no
// meaningful empty form).
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0" for an ephemeral
	// port or ":9300" to expose the server.
	Addr string

	// Sampler feeds /metrics (latest cumulative snapshot, Prometheus
	// text), /series (per-epoch deltas, JSON) and /fairness (the
	// per-thread service-share series memctrl.Fairness scores from
	// them).
	Sampler *metrics.Sampler

	// Interference feeds /interference (the latest published
	// who-delayed-whom attribution snapshot, JSON) and appends the
	// fqms_interference_cycles_total family to /metrics. Nil, or a
	// controller running without attribution, leaves the endpoint 404.
	Interference *memctrl.Controller

	// Progress feeds /progress and the fqms_progress_* gauges.
	Progress *Progress

	// Checkpoint feeds POST /checkpoint: each request triggers an
	// on-demand snapshot at the simulation loop's next safe point and
	// returns once the file is on disk. Nil leaves the endpoint 404.
	Checkpoint *CheckpointTrigger
}

// Server is a running HTTP endpoint: the status server Start returns,
// or any handler given to Serve. Stop it with Shutdown.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start serves the status endpoints of cfg on cfg.Addr.
func Start(cfg Config) (*Server, error) { return Serve(cfg.Addr, newMux(cfg)) }

// Serve binds addr synchronously — the returned server's URL is
// immediately reachable — and serves h on a background goroutine until
// Shutdown.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns ErrServerClosed after Shutdown; anything else
		// is a listener failure with nobody to report it to, and the
		// sweep must not die for its status page, so it is dropped.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// URL returns the server's base URL, e.g. "http://127.0.0.1:43211".
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drained (subject to ctx), serve goroutine exited.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// newMux builds the endpoint map.
func newMux(cfg Config) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "fqms status server\n\n"+
			"/metrics        Prometheus text exposition (latest epoch snapshot)\n"+
			"/series         JSON per-epoch metric deltas (?since=<cycle>)\n"+
			"/fairness       JSON per-thread service-share series (?since=<cycle>)\n"+
			"/interference   JSON who-delayed-whom attribution matrix\n"+
			"/progress       JSON sweep progress\n"+
			"/checkpoint     POST: write a checkpoint at the next safe point\n"+
			"/debug/pprof/   Go profiling\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var snap metrics.Snapshot
		if cfg.Sampler != nil {
			snap, _ = cfg.Sampler.Latest()
		}
		if err := WritePrometheus(w, snap); err != nil {
			return
		}
		if cfg.Interference != nil {
			if isnap, ok := cfg.Interference.PublishedInterference(); ok {
				writeInterferenceCounters(w, isnap)
			}
		}
		if cfg.Progress != nil {
			writeProgressGauges(w, cfg.Progress.Snapshot())
		}
	})

	mux.HandleFunc("/interference", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Interference == nil || !cfg.Interference.InterferenceEnabled() {
			http.Error(w, "interference attribution not enabled", http.StatusNotFound)
			return
		}
		// Before the first epoch boundary the published snapshot is the
		// zero value: a valid, empty matrix.
		snap, _ := cfg.Interference.PublishedInterference()
		writeJSON(w, snap)
	})

	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		if since, ok := sinceParam(w, r, cfg.Sampler); ok {
			writeJSON(w, cfg.Sampler.Series(since))
		}
	})

	mux.HandleFunc("/fairness", func(w http.ResponseWriter, r *http.Request) {
		// The summary covers every retained epoch; ?since= only trims
		// the series.
		if since, ok := sinceParam(w, r, cfg.Sampler); ok {
			sum, samples := memctrl.Fairness(cfg.Sampler.Series(-1), since)
			writeJSON(w, struct {
				Summary memctrl.FairnessSummary  `json:"summary"`
				Samples []memctrl.FairnessSample `json:"samples"`
			}{sum, samples})
		}
	})

	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		var snap ProgressSnapshot
		if cfg.Progress != nil {
			snap = cfg.Progress.Snapshot()
		}
		writeJSON(w, snap)
	})

	mux.HandleFunc("/checkpoint", handleCheckpoint(cfg.Checkpoint))

	// pprof is wired explicitly because the server uses its own mux
	// (importing net/http/pprof only registers on the default one).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// sinceParam answers a series request that cannot be served: 404
// without a sampler, 400 when ?since=<cycle> is not a decimal integer.
// Otherwise it returns the cycle, or -1 (all) when since is absent.
func sinceParam(w http.ResponseWriter, r *http.Request, sp *metrics.Sampler) (int64, bool) {
	if sp == nil {
		http.Error(w, "no sampler attached", http.StatusNotFound)
		return 0, false
	}
	v := r.URL.Query().Get("since")
	if v == "" {
		return -1, true
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("since=%q is not a cycle", v), http.StatusBadRequest)
	}
	return n, err == nil
}

// writeInterferenceCounters appends the who-delayed-whom matrix to a
// Prometheus exposition as one labelled counter family. Only non-zero
// cells are emitted (the matrix is quadratic in threads and mostly
// sparse); the aggressor label "none" is the no-aggressor bucket.
func writeInterferenceCounters(w http.ResponseWriter, s memctrl.InterferenceSnapshot) {
	const pn = MetricPrefix + "interference_cycles"
	fmt.Fprintf(w, "# TYPE %s counter\n", pn)
	for v, row := range s.Cube {
		for a, cells := range row {
			aggr := "none"
			if a < s.Threads {
				aggr = strconv.Itoa(a)
			}
			for c, n := range cells {
				if n == 0 {
					continue
				}
				fmt.Fprintf(w, "%s_total{victim=\"%d\",aggressor=\"%s\",cause=\"%s\"} %d\n",
					pn, v, aggr, s.Causes[c], n)
			}
		}
	}
}

// writeProgressGauges appends the sweep-progress family to a
// Prometheus exposition.
func writeProgressGauges(w http.ResponseWriter, p ProgressSnapshot) {
	fmt.Fprintf(w, "# TYPE fqms_progress_done gauge\nfqms_progress_done %d\n", p.Done)
	fmt.Fprintf(w, "# TYPE fqms_progress_total gauge\nfqms_progress_total %d\n", p.Total)
	fmt.Fprintf(w, "# TYPE fqms_progress_sim_cycles gauge\nfqms_progress_sim_cycles %d\n", p.SimCycles)
	fmt.Fprintf(w, "# TYPE fqms_progress_cycles_per_sec gauge\nfqms_progress_cycles_per_sec %g\n", p.CyclesPerSec)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
