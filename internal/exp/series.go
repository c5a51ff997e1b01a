package exp

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Time-series export: when Config.SampleInterval is set the runner
// samples every simulation's metrics on epoch boundaries, and each
// run's artifact set (artifacts.go) gains the two encodings below.

// seriesDoc is the schema of a run's series artifact and of fqsim's
// -series-out file (which names no key or policy).
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

// sanitizeKey maps a memo key like "co/art+vpr/FQ-VFTF" to the filename
// stem its artifacts share, replacing path separators and anything else
// unfriendly.
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

// seriesJSON encodes a sampled run's epoch time series — the
// per-interval metric deltas plus the fairness series and its summary —
// as one self-describing JSON document. key names the run within a
// sweep; a standalone run passes "".
func seriesJSON(key string, s *sim.System) ([]byte, error) {
	doc := seriesDoc{
		Key:      key,
		Interval: s.Sampler().Interval(),
		Epochs:   s.Sampler().Epochs(),
		Samples:  s.Sampler().Samples(-1),
	}
	if key != "" {
		doc.Policy = s.Controller().Policy().Name()
	}
	doc.Fairness.Summary, doc.Fairness.Samples = memctrl.Fairness(doc.Interval, doc.Samples)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

// WriteSeriesJSON writes a standalone run's seriesJSON document to path.
func WriteSeriesJSON(path string, s *sim.System) error {
	b, err := seriesJSON("", s)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, b)
}

// fairnessCSV flattens a sampled run's fairness series to one row per
// (epoch, thread). Every row leads with the run's policy name so
// fairness series from different schedulers (e.g. an arena sweep)
// concatenate into one plottable file.
func fairnessCSV(s *sim.System) ([]byte, error) {
	policy := s.Controller().Policy().Name()
	_, series := memctrl.Fairness(s.Sampler().Interval(), s.Sampler().Samples(-1))
	var rows [][]string
	for _, fs := range series {
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
	var buf bytes.Buffer
	err := writeCSV(&buf, []string{
		"policy", "epoch", "cycle", "thread", "service", "share", "phi", "excess", "backlogged", "cum_shortfall",
		"top_aggressor", "stolen_cycles",
	}, rows)
	return buf.Bytes(), err
}
