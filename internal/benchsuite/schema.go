package benchsuite

// This file defines the versioned BENCH_*.json document: what a suite
// run serializes, how it is written (atomically, refusing silent
// overwrites), how it is loaded (strict framing, version check), and how
// two runs are compared for the CI regression gate.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"outlierlb/internal/atomicfile"
)

// SchemaVersion is the BENCH_*.json document version this package reads
// and writes. Loaders reject any other version rather than guess.
const SchemaVersion = 1

// RunOptions records the knobs a run was taken with, so a baseline is
// reproducible from its own file.
type RunOptions struct {
	Reps      int    `json:"reps"`
	MacroReps int    `json:"macro_reps"`
	Warmup    int    `json:"warmup"`
	MinRunNS  int64  `json:"min_run_ns"`
	Seed      uint64 `json:"seed"`
}

// RunDoc is one suite run: environment fingerprint, options, and one
// Result per scenario. It is the top-level BENCH_*.json document.
type RunDoc struct {
	SchemaVersion int        `json:"schema_version"`
	Commit        string     `json:"commit,omitempty"`
	Timestamp     string     `json:"timestamp,omitempty"` // RFC 3339
	GoVersion     string     `json:"go_version"`
	GOOS          string     `json:"goos"`
	GOARCH        string     `json:"goarch"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	Options       RunOptions `json:"options"`
	Scenarios     []Result   `json:"scenarios"`
}

// NewRunDoc returns an empty document stamped with the current
// environment, schema version, options and timestamp. The commit hash is
// the caller's to fill (cmd/benchrunner asks git).
func NewRunDoc(opt Options) *RunDoc {
	opt = opt.withDefaults()
	return &RunDoc{
		SchemaVersion: SchemaVersion,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Options: RunOptions{
			Reps:      opt.Reps,
			MacroReps: opt.MacroReps,
			Warmup:    opt.Warmup,
			MinRunNS:  opt.MinRunTime.Nanoseconds(),
			Seed:      opt.Seed,
		},
	}
}

// Scenario returns the named result and whether it exists.
func (d *RunDoc) Scenario(name string) (Result, bool) {
	for _, s := range d.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Result{}, false
}

// MedianRelIQR is the median relative dispersion (IQR / median of
// ns_per_op) across the run's scenarios — a one-number answer to "was
// this host quiet while we measured?". CI skips the regression gate when
// it is high: on a throttled or noisy runner the tolerance band means
// nothing.
func (d *RunDoc) MedianRelIQR() float64 {
	if len(d.Scenarios) == 0 {
		return 0
	}
	rel := make([]float64, 0, len(d.Scenarios))
	for _, s := range d.Scenarios {
		rel = append(rel, s.NsPerOp.RelIQR())
	}
	return percentile(rel, 0.5)
}

// Encode writes the document as indented JSON.
func (d *RunDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Decode parses one BENCH_*.json document. It rejects a missing or
// unknown schema_version, unknown fields and trailing data after the
// document, so a truncated, concatenated or other-kind file (a RESIL or
// RUN document) fails loudly instead of producing a half-baked baseline.
func Decode(r io.Reader) (*RunDoc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d RunDoc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("benchsuite: decoding run: %w", err)
	}
	if d.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchsuite: unsupported schema_version %d (this build reads version %d)",
			d.SchemaVersion, SchemaVersion)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("benchsuite: trailing data after run document")
	}
	return &d, nil
}

// Load reads and validates a BENCH_*.json file.
func Load(path string) (*RunDoc, error) {
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

// WriteFile persists the document to path atomically, so a crash
// mid-write can never leave a truncated baseline. Unless force is set it
// refuses to overwrite an existing file: baselines are committed
// artifacts, and silently clobbering one is how a trajectory gets
// corrupted.
func WriteFile(path string, d *RunDoc, force bool) error {
	if err := atomicfile.Write(path, force, d.Encode); err != nil {
		return fmt.Errorf("benchsuite: %w", err)
	}
	return nil
}

// Verdict classifies one scenario's change between two runs.
type Verdict string

// The Compare verdicts.
const (
	VerdictImproved  Verdict = "improved"  // new median faster beyond tolerance
	VerdictRegressed Verdict = "regressed" // new median slower beyond tolerance
	VerdictUnchanged Verdict = "unchanged" // within tolerance (or noise floor)
	VerdictAdded     Verdict = "added"     // scenario only in the new run
	VerdictRemoved   Verdict = "removed"   // scenario only in the old run
)

// Delta is one scenario's comparison outcome.
type Delta struct {
	Name    string  `json:"name"`
	Verdict Verdict `json:"verdict"`
	// OldNs / NewNs are the runs' median ns_per_op (0 when absent).
	OldNs float64 `json:"old_ns,omitempty"`
	NewNs float64 `json:"new_ns,omitempty"`
	// Change is the fractional change (NewNs−OldNs)/OldNs; negative is
	// faster.
	Change float64 `json:"change,omitempty"`
	// Tolerance is the effective band applied: the caller's tolerance
	// widened to either run's relative IQR, so a scenario can never be
	// classified by a difference smaller than its own measured noise.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Compare classifies every scenario of new against old. tolerance is the
// fractional band (e.g. 0.30 = ±30%) below which a change is reported as
// unchanged; per scenario it is widened to max(tolerance, old RelIQR,
// new RelIQR) so noisy scenarios do not flap the gate. A change exactly
// at the boundary counts as unchanged. Deltas follow old's scenario
// order, with added scenarios appended in new's order.
func Compare(old, new *RunDoc, tolerance float64) []Delta {
	if tolerance < 0 {
		tolerance = 0
	}
	var out []Delta
	seen := make(map[string]bool)
	for _, os := range old.Scenarios {
		seen[os.Name] = true
		ns, ok := new.Scenario(os.Name)
		if !ok {
			out = append(out, Delta{Name: os.Name, Verdict: VerdictRemoved, OldNs: os.NsPerOp.Median})
			continue
		}
		d := Delta{Name: os.Name, OldNs: os.NsPerOp.Median, NewNs: ns.NsPerOp.Median}
		d.Tolerance = tolerance
		if r := os.NsPerOp.RelIQR(); r > d.Tolerance {
			d.Tolerance = r
		}
		if r := ns.NsPerOp.RelIQR(); r > d.Tolerance {
			d.Tolerance = r
		}
		if d.OldNs > 0 {
			d.Change = (d.NewNs - d.OldNs) / d.OldNs
		}
		switch {
		case d.Change > d.Tolerance:
			d.Verdict = VerdictRegressed
		case d.Change < -d.Tolerance:
			d.Verdict = VerdictImproved
		default:
			d.Verdict = VerdictUnchanged
		}
		out = append(out, d)
	}
	for _, ns := range new.Scenarios {
		if !seen[ns.Name] {
			out = append(out, Delta{Name: ns.Name, Verdict: VerdictAdded, NewNs: ns.NsPerOp.Median})
		}
	}
	return out
}

// Regressions filters deltas down to regressed scenarios, sorted worst
// first.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Verdict == VerdictRegressed {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Change > out[j].Change })
	return out
}
