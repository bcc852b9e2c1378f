package obs

// This file is the run flight recorder: an interval-aligned in-memory
// time series of every registered metric plus the sampled span trees,
// flushed at run end as a versioned RUN_*.json artifact (the
// BENCH_*.json idiom — strict schema, atomic temp+rename write) and
// served live at /debug/runs. cmd/tracetool consumes the artifact.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"outlierlb/internal/atomicfile"
)

// RunSchemaVersion is the RUN_*.json document version this package
// reads and writes. Loaders reject any other version rather than guess.
const RunSchemaVersion = 1

// RunSeries is one metric series of a recording: one point per tick,
// zero-backfilled for ticks before the series first appeared.
type RunSeries struct {
	Name string `json:"name"`
	// Labels is the rendered {a="b",...} label set, "" when unlabeled.
	Labels string    `json:"labels,omitempty"`
	Points []float64 `json:"points"`
}

// RunMeta identifies the run a recording captured.
type RunMeta struct {
	Tool       string  `json:"tool,omitempty"`
	Scenario   string  `json:"scenario,omitempty"`
	Seed       uint64  `json:"seed"`
	SampleRate float64 `json:"sample_rate"`
}

// RunRecording is the top-level RUN_*.json document: run identity, one
// tick timestamp per closed controller interval, every registered
// metric's value at each tick (histograms as _count/_sum), the tracer's
// lifetime counters, and the retained span trees.
type RunRecording struct {
	SchemaVersion int `json:"schema_version"`
	RunMeta
	// Ticks are the controller tick times the series are aligned to,
	// in virtual-time seconds, ascending.
	Ticks  []float64   `json:"ticks"`
	Series []RunSeries `json:"series"`
	// TraceStats counts all queries, including unsampled and evicted
	// ones, so Traces' coverage is quantified.
	TraceStats TraceStats `json:"trace_stats"`
	// Traces are the retained finished span trees, oldest first.
	Traces []*Span `json:"traces,omitempty"`
}

// FlightRecorder records a run as it happens. It implements Observer
// and is meant to be Tee'd after a Recorder sharing the same Registry:
// each controller tick's IntervalClosed marks an interval boundary, and
// the registry is sampled once per tick *after* every app's interval
// data landed (the sample for tick T is taken when tick T+1 opens, or
// at Snapshot time for the final tick). Safe for concurrent use — the
// HTTP server snapshots it mid-run.
type FlightRecorder struct {
	reg    *Registry
	tracer *Tracer
	meta   RunMeta

	mu          sync.Mutex
	ticks       []float64
	series      map[string]*RunSeries
	pending     bool
	pendingTime float64
}

// NewFlightRecorder returns a recorder sampling reg each tick and
// harvesting finished traces from tracer (which may be nil for a
// metrics-only recording).
func NewFlightRecorder(reg *Registry, tracer *Tracer, meta RunMeta) *FlightRecorder {
	return &FlightRecorder{reg: reg, tracer: tracer, meta: meta, series: make(map[string]*RunSeries)}
}

// Event implements Observer.
func (f *FlightRecorder) Event(Event) {}

// ServerSampled implements Observer.
func (f *FlightRecorder) ServerSampled(ServerObs) {}

// ClassLatency implements Observer.
func (f *FlightRecorder) ClassLatency(ClassLatencyObs) {}

// AdmissionSampled implements Observer.
func (f *FlightRecorder) AdmissionSampled(AdmissionObs) {}

// CtrlSampled implements Observer.
func (f *FlightRecorder) CtrlSampled(CtrlObs) {}

// IntervalClosed implements Observer: the first interval closing at a
// new tick time seals the previous tick — by then every app's latency,
// admission and server samples for it reached the registry.
func (f *FlightRecorder) IntervalClosed(iv IntervalObs) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending && iv.Time <= f.pendingTime {
		return // another app closing the same tick
	}
	if f.pending {
		f.sampleLocked(f.pendingTime)
	}
	f.pending, f.pendingTime = true, iv.Time
}

// sampleLocked appends one tick's registry snapshot to every series.
// Registry families only ever grow, so a series present at tick T is
// present at every later tick; series born late are zero-backfilled.
func (f *FlightRecorder) sampleLocked(t float64) {
	f.ticks = append(f.ticks, t)
	for _, s := range f.reg.Snapshot() {
		key := s.Name + s.Labels
		rs := f.series[key]
		if rs == nil {
			rs = &RunSeries{Name: s.Name, Labels: s.Labels, Points: make([]float64, 0, 16)}
			f.series[key] = rs
		}
		for len(rs.Points) < len(f.ticks)-1 {
			rs.Points = append(rs.Points, 0)
		}
		rs.Points = append(rs.Points, s.Value)
	}
}

// Snapshot assembles the recording as it stands, without disturbing
// recorder state: the still-open tick (if any) is sampled into the
// returned copy only, so mid-run HTTP reads and the end-of-run flush
// use the same code path. Series are sorted by name then labels;
// traces come from the tracer's ring, oldest first.
func (f *FlightRecorder) Snapshot() *RunRecording {
	f.mu.Lock()
	rec := &RunRecording{
		SchemaVersion: RunSchemaVersion,
		RunMeta:       f.meta,
		Ticks:         append([]float64(nil), f.ticks...),
	}
	var snap []SeriesSample
	pendingVals := map[string]float64{}
	if f.pending {
		rec.Ticks = append(rec.Ticks, f.pendingTime)
		snap = f.reg.Snapshot()
		for _, s := range snap {
			pendingVals[s.Name+s.Labels] = s.Value
		}
	}
	nTicks := len(rec.Ticks)
	consumed := make(map[string]bool, len(f.series))
	for key, rs := range f.series {
		cp := RunSeries{Name: rs.Name, Labels: rs.Labels, Points: append([]float64(nil), rs.Points...)}
		if f.pending {
			cp.Points = append(cp.Points, pendingVals[key])
			consumed[key] = true
		}
		for len(cp.Points) < nTicks {
			cp.Points = append(cp.Points, 0)
		}
		rec.Series = append(rec.Series, cp)
	}
	// Series that first appeared during the still-open tick.
	for _, s := range snap {
		if consumed[s.Name+s.Labels] {
			continue
		}
		pts := make([]float64, nTicks)
		pts[nTicks-1] = s.Value
		rec.Series = append(rec.Series, RunSeries{Name: s.Name, Labels: s.Labels, Points: pts})
	}
	f.mu.Unlock()
	sortSeries(rec.Series)
	if rec.Series == nil {
		rec.Series = []RunSeries{}
	}
	rec.TraceStats = f.tracer.Stats()
	rec.Traces = f.tracer.Recent(0)
	return rec
}

func sortSeries(s []RunSeries) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].Labels < s[j].Labels
	})
}

// Encode writes the recording as indented JSON.
func (r *RunRecording) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeRun parses one RUN_*.json document. It rejects a missing or
// unknown schema_version, unknown fields, trailing data, and series
// whose point count disagrees with the tick count, so a truncated,
// hand-edited or other-kind file (a BENCH or RESIL document) fails
// loudly.
func DecodeRun(rd io.Reader) (*RunRecording, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r RunRecording
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: decoding run recording: %w", err)
	}
	if r.SchemaVersion != RunSchemaVersion {
		return nil, fmt.Errorf("obs: unsupported run schema_version %d (this build reads version %d)",
			r.SchemaVersion, RunSchemaVersion)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("obs: trailing data after run recording")
	}
	for _, s := range r.Series {
		if len(s.Points) != len(r.Ticks) {
			return nil, fmt.Errorf("obs: series %s%s has %d points for %d ticks",
				s.Name, s.Labels, len(s.Points), len(r.Ticks))
		}
	}
	return &r, nil
}

// LoadRun reads and validates a RUN_*.json file.
func LoadRun(path string) (*RunRecording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := DecodeRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// WriteRunFile persists the recording to path atomically, so a crash
// mid-write can never leave a truncated artifact. Unless force is set it
// refuses to overwrite an existing file.
func WriteRunFile(path string, r *RunRecording, force bool) error {
	if err := atomicfile.Write(path, force, r.Encode); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

var _ Observer = (*FlightRecorder)(nil)
