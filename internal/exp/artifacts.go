package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sim"
)

// A run's artifact set: the files one simulation leaves in Config.Dir,
// all named after its memo key (sanitizeKey). This file alone decides
// which files those are, what they are called and what bytes they hold;
// the runner, the fabric's wire bodies, its store and its merge carry
// []Artifact without naming a member. A new per-run file is one entry
// in artifactKinds.

// Artifact is one file of an artifact set: its name within the
// directory and its bytes.
type Artifact struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// finished is a completed run as the artifact kinds see it.
type finished struct {
	key    string
	res    sim.Result
	series *seriesDoc       // nil unless the run sampled
	intf   *InterferenceDoc // nil unless the run attributed delays
}

const (
	resultKind       = ".result.json"
	interferenceKind = ".interference.json"
	checkpointKind   = ".ckpt"
)

// artifactKinds lists every file a finished run leaves, in writing
// order: the result comes last, so a sweep killed between two writes
// is re-simulated by the resumed one, not recalled half-written.
var artifactKinds = []struct {
	suffix string
	when   func(Config) bool
	render func(finished) ([]byte, error)
}{
	// The full epoch series (per-interval counter deltas, gauge values,
	// histogram-bucket deltas) plus the fairness series and its summary.
	{".series.json", sampling, func(f finished) ([]byte, error) { return f.series.encode() }},
	// The fairness series flattened to one row per (epoch, thread).
	{".fairness.csv", sampling, func(f finished) ([]byte, error) { return f.series.fairnessCSV() }},
	// The who-delayed-whom matrix over the measurement window.
	{interferenceKind, attributing, func(f finished) ([]byte, error) {
		b, err := json.MarshalIndent(f.intf, "", "  ")
		return append(b, '\n'), err
	}},
	{resultKind, always, func(f finished) ([]byte, error) {
		return json.MarshalIndent(f.res, "", "  ")
	}},
}

func sampling(c Config) bool    { return c.SampleInterval > 0 }
func attributing(c Config) bool { return c.Interference }
func always(Config) bool        { return true }

// ArtifactNames lists the files a finished run of key leaves under
// this configuration: the result always, the series and fairness files
// when sampling, the interference file when attributing.
func (c Config) ArtifactNames(key string) []string {
	var names []string
	for _, k := range artifactKinds {
		if k.when(c) {
			names = append(names, sanitizeKey(key)+k.suffix)
		}
	}
	return names
}

// CheckpointName is the file a run of key checkpoints into while it
// executes; writing the artifact set retires it.
func CheckpointName(key string) string { return sanitizeKey(key) + checkpointKind }

// renderArtifacts renders a finished run's set, in ArtifactNames order.
func (c Config) renderArtifacts(f finished) ([]Artifact, error) {
	var set []Artifact
	for _, k := range artifactKinds {
		if !k.when(c) {
			continue
		}
		name := sanitizeKey(f.key) + k.suffix
		b, err := k.render(f)
		if err != nil {
			return nil, fmt.Errorf("exp: artifact %s: %w", name, err)
		}
		set = append(set, Artifact{Name: name, Data: b})
	}
	return set, nil
}

// DecodeArtifacts parses the members of a set that sweeps compute with:
// the run's Result and, when the set carries one, its interference
// document.
func DecodeArtifacts(set []Artifact) (sim.Result, *InterferenceDoc, error) {
	var (
		res   sim.Result
		doc   *InterferenceDoc
		found bool
	)
	for _, a := range set {
		switch {
		case strings.HasSuffix(a.Name, resultKind):
			if err := json.Unmarshal(a.Data, &res); err != nil {
				return sim.Result{}, nil, fmt.Errorf("exp: artifact %s is not a sim.Result: %w", a.Name, err)
			}
			found = true
		case strings.HasSuffix(a.Name, interferenceKind):
			doc = new(InterferenceDoc)
			if err := json.Unmarshal(a.Data, doc); err != nil {
				return sim.Result{}, nil, fmt.Errorf("exp: artifact %s is not an exp.InterferenceDoc: %w", a.Name, err)
			}
		}
	}
	if !found {
		return sim.Result{}, nil, errors.New("exp: artifact set has no result")
	}
	return res, doc, nil
}

// WriteArtifacts lands every member of set in dir (created if absent).
func WriteArtifacts(dir string, set []Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range set {
		if err := writeFileAtomic(filepath.Join(dir, a.Name), a.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadArtifacts returns the named members of dir's set: all of them,
// or the error (which names the file) of the first one missing.
func ReadArtifacts(dir string, names []string) ([]Artifact, error) {
	set := make([]Artifact, len(names))
	for i, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		set[i] = Artifact{Name: name, Data: b}
	}
	return set, nil
}

// writeFileAtomic lands b at path by temp file + rename, so a file's
// existence means it is whole: a sweep killed mid-write never leaves a
// truncated artifact where a resumed one expects a complete one. Each
// key is written by the one caller that simulates it, so the temp name
// needs no uniquifier.
func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
