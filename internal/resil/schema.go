package resil

// This file defines the versioned RESIL_*.json document: scorecards for
// a set of chaos/adversarial scenarios across seeds, written atomically
// and loaded with strict framing — the same discipline as the
// BENCH_*.json baselines, because a resilience gate built on a
// half-written or version-skewed scorecard is worse than no gate.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"outlierlb/internal/atomicfile"
)

// SchemaVersion is the RESIL_*.json document version this package reads
// and writes. Loaders reject any other version rather than guess.
const SchemaVersion = 1

// Doc is the top-level RESIL_*.json document: environment fingerprint
// plus one Scorecard per (scenario, seed) run.
type Doc struct {
	SchemaVersion int         `json:"schema_version"`
	Commit        string      `json:"commit,omitempty"`
	Timestamp     string      `json:"timestamp,omitempty"` // RFC 3339
	GoVersion     string      `json:"go_version"`
	Scorecards    []Scorecard `json:"scorecards"`
}

// NewDoc returns an empty document stamped with the current environment
// and schema version. The commit hash is the caller's to fill.
func NewDoc() *Doc {
	return &Doc{
		SchemaVersion: SchemaVersion,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
	}
}

// Encode writes the document as indented JSON.
func (d *Doc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Decode parses one RESIL_*.json document. It rejects a missing or
// unknown schema_version, unknown fields and trailing data after the
// document, so a truncated, concatenated or other-kind file (a BENCH or
// RUN document) fails loudly.
func Decode(r io.Reader) (*Doc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("resil: decoding scorecard: %w", err)
	}
	if d.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("resil: unsupported schema_version %d (this build reads version %d)",
			d.SchemaVersion, SchemaVersion)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("resil: trailing data after scorecard document")
	}
	return &d, nil
}

// Load reads and validates a RESIL_*.json file.
func Load(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// WriteFile persists the document to path atomically and, unless force
// is set, refuses to overwrite an existing file: scorecards are committed
// artifacts.
func WriteFile(path string, d *Doc, force bool) error {
	if err := atomicfile.Write(path, force, d.Encode); err != nil {
		return fmt.Errorf("resil: %w", err)
	}
	return nil
}
