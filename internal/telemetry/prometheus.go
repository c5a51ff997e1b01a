// Package telemetry serves a running simulation's observability
// surfaces over HTTP: Prometheus text exposition of the live metrics
// snapshot, JSON time series from the epoch sampler and the fairness
// series scored from them, sweep progress, and net/http/pprof.
//
// The package never touches a live registry. Everything it reads —
// sampler records, progress counters — is published
// under a mutex by the producing goroutine, so scraping is safe while
// the simulation runs flat out (see metrics.Sampler's concurrency
// contract).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// MetricPrefix namespaces every exposed metric. Internal dotted names
// like "memctrl.fq.inversions" become "fqms_memctrl_fq_inversions".
const MetricPrefix = "fqms_"

// PromName converts an internal metric name to a valid Prometheus
// metric name: the fqms_ prefix plus the name with every character
// outside [a-zA-Z0-9_:] replaced by an underscore. Distinct internal
// names that sanitize identically would collide; registrants keep
// names unambiguous under this mapping (ours differ by more than
// punctuation).
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(MetricPrefix) + len(name))
	b.WriteString(MetricPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as <name>_total, gauges as-is, and
// log2 histograms as cumulative le-bucketed series with _sum and
// _count. Families are emitted in sorted name order so the output is
// deterministic and diffable.
func WritePrometheus(w io.Writer, snap metrics.Snapshot) error {
	for _, name := range sortedKeys(snap.Counters) {
		pn := PromName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		if err := writeHistogram(w, PromName(name), snap.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns a snapshot family's names in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeHistogram emits one histogram family. The snapshot's buckets are
// per-bucket counts at increasing right edges; Prometheus buckets are
// cumulative, so a running sum converts between the two. The +Inf
// bucket always equals the total count.
func writeHistogram(w io.Writer, pn string, h metrics.HistogramStats) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b[1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b[0], cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, h.Count, pn, h.Sum, pn, h.Count)
	return err
}
