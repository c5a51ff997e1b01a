package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Time-series export: when Config.SampleInterval is set the runner
// samples every simulation's metrics on epoch boundaries, and when
// Config.SeriesDir is also set each run leaves two artifacts named
// after its memo key:
//
//   - <key>.series.json — the full epoch series (per-interval counter
//     deltas, gauge values, histogram-bucket deltas) plus the fairness
//     series and its summary, self-describing for plotting tools;
//   - <key>.fairness.csv — the fairness series flattened to one row
//     per (epoch, thread), plot-ready like the figure CSVs. Every row
//     leads with the run's policy name so fairness series from
//     different schedulers (e.g. an arena sweep) concatenate into one
//     plottable file.

// seriesDoc is the schema of a <key>.series.json artifact and of
// fqsim's -series-out file (which names no key or policy).
type seriesDoc struct {
	Key      string           `json:"key,omitempty"`
	Policy   string           `json:"policy,omitempty"`
	Interval int64            `json:"interval"`
	Epochs   int64            `json:"epochs"`
	Samples  []metrics.Sample `json:"samples"`

	Fairness struct {
		Summary memctrl.FairnessSummary  `json:"summary"`
		Samples []memctrl.FairnessSample `json:"samples"`
	} `json:"fairness"`
}

// sanitizeKey maps a memo key like "co/art+vpr/FQ-VFTF" to a filename
// stem, replacing path separators and anything else unfriendly.
func sanitizeKey(key string) string {
	out := make([]byte, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '+', c == '-', c == '_':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// WriteSeriesJSON writes a sampled run's epoch time series — the
// per-interval metric deltas plus the fairness series and its summary —
// to path as one self-describing JSON document. key names the run
// within a sweep; a standalone run passes "".
func WriteSeriesJSON(path, key string, s *sim.System) error {
	doc := seriesDoc{
		Key:      key,
		Interval: s.Sampler().Interval(),
		Epochs:   s.Sampler().Epochs(),
		Samples:  s.Sampler().Samples(-1),
	}
	if key != "" {
		doc.Policy = s.Controller().Policy().Name()
	}
	doc.Fairness.Summary = s.Fairness().Summary()
	doc.Fairness.Samples = s.Fairness().Samples(-1)

	jf, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(jf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// writeSeries exports one finished run's time series into dir.
func writeSeries(dir, key string, s *sim.System) error {
	stem := filepath.Join(dir, sanitizeKey(key))
	if err := WriteSeriesJSON(stem+".series.json", key, s); err != nil {
		return err
	}
	policy := s.Controller().Policy().Name()
	samples := s.Fairness().Samples(-1)

	cf, err := os.Create(stem + ".fairness.csv")
	if err != nil {
		return err
	}
	var rows [][]string
	for _, fs := range samples {
		for t := range fs.Service {
			rows = append(rows, []string{
				policy,
				strconv.FormatInt(fs.Epoch, 10), strconv.FormatInt(fs.Cycle, 10),
				strconv.Itoa(t), strconv.FormatInt(fs.Service[t], 10),
				f(fs.Share[t]), f(fs.Phi[t]), f(fs.Excess[t]),
				strconv.FormatBool(fs.Backlogged[t]), f(fs.CumShortfall[t]),
				strconv.Itoa(fs.TopAggressor[t]), strconv.FormatInt(fs.StolenCycles[t], 10),
			})
		}
	}
	err = writeCSV(cf, []string{
		"policy", "epoch", "cycle", "thread", "service", "share", "phi", "excess", "backlogged", "cum_shortfall",
		"top_aggressor", "stolen_cycles",
	}, rows)
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("exp: fairness csv %s: %w", key, err)
	}
	return nil
}
