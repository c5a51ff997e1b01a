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
// -series-out file (which names no key or policy): one copy of the
// sampler's records, and the fairness series scored from it once.
type seriesDoc struct {
	Key    string `json:"key,omitempty"`
	Policy string `json:"policy,omitempty"`
	metrics.Series

	Fairness struct {
		Summary memctrl.FairnessSummary  `json:"summary"`
		Samples []memctrl.FairnessSample `json:"samples"`
	} `json:"fairness"`
}

// newSeriesDoc copies a sampled run's epoch series and scores it. key
// names the run within a sweep (and the document then names its
// policy); a standalone run passes "".
func newSeriesDoc(key string, s *sim.System) *seriesDoc {
	doc := &seriesDoc{Key: key, Series: s.Sampler().Series(-1)}
	if key != "" {
		doc.Policy = s.Controller().Policy().Name()
	}
	doc.Fairness.Summary, doc.Fairness.Samples = memctrl.Fairness(doc.Series, -1)
	return doc
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

// encode renders the document as one indented JSON file: the
// per-interval metric deltas plus the fairness series and its summary.
func (d *seriesDoc) encode() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	return append(b, '\n'), err
}

// WriteSeriesJSON writes a standalone run's series document to path.
func WriteSeriesJSON(path string, s *sim.System) error {
	b, err := newSeriesDoc("", s).encode()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, b)
}

// fairnessCSV flattens a sweep run's fairness series to one row per
// (epoch, thread). Every row leads with the run's policy name so
// fairness series from different schedulers (e.g. an arena sweep)
// concatenate into one plottable file.
func (d *seriesDoc) fairnessCSV() ([]byte, error) {
	policy, series := d.Policy, d.Fairness.Samples
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
