package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tickFlight closes one controller tick for two apps — the recorder must
// count it once.
func tickFlight(f *FlightRecorder, t float64) {
	f.IntervalClosed(IntervalObs{Time: t, App: "tpcw"})
	f.IntervalClosed(IntervalObs{Time: t, App: "rubis"})
}

func TestFlightRecorderTicksAndBackfill(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(1, 1.0, 8)
	f := NewFlightRecorder(reg, tr, RunMeta{Tool: "test", Scenario: "unit", Seed: 1, SampleRate: 1})

	reg.Set("alpha", nil, 1)
	tickFlight(f, 10)
	reg.Set("alpha", nil, 2)
	tickFlight(f, 20) // seals tick 10 with alpha=2 (sampled when 20 opens)
	reg.Set("alpha", nil, 3)
	reg.Set("beta", L("app", "tpcw"), 7) // born during tick 20
	sp := tr.StartQuery(25, "tpcw", "Home")
	sp.Finish(26)
	tickFlight(f, 30) // seals tick 20

	rec := f.Snapshot()
	if want := []float64{10, 20, 30}; len(rec.Ticks) != 3 || rec.Ticks[0] != want[0] || rec.Ticks[2] != want[2] {
		t.Fatalf("ticks = %v, want %v", rec.Ticks, want)
	}
	series := map[string][]float64{}
	for _, s := range rec.Series {
		series[s.Name+s.Labels] = s.Points
	}
	// Tick T is sampled when tick T+1 opens, so tick 10 carries the
	// writes made during interval 10 (alpha=2); the still-open tick 30
	// carries the live value.
	if got := series["alpha"]; len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("alpha points = %v, want [2 3 3]", got)
	}
	// beta was born during tick 20: zero-backfilled for tick 10.
	if got := series[`beta{app="tpcw"}`]; len(got) != 3 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("beta points = %v, want [0 7 7]", got)
	}
	if rec.TraceStats.Finished != 1 || len(rec.Traces) != 1 {
		t.Fatalf("recording carries %d finished / %d traces, want 1/1", rec.TraceStats.Finished, len(rec.Traces))
	}

	// Snapshot must not consume the pending tick: a second snapshot sees
	// the same ticks, and recording continues cleanly.
	rec2 := f.Snapshot()
	if len(rec2.Ticks) != 3 {
		t.Fatalf("second snapshot has %d ticks, want 3 (Snapshot must not disturb state)", len(rec2.Ticks))
	}
	reg.Set("alpha", nil, 4)
	tickFlight(f, 40)
	if rec3 := f.Snapshot(); len(rec3.Ticks) != 4 {
		t.Fatalf("after another tick: %d ticks, want 4", len(rec3.Ticks))
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(2, 1.0, 8)
	f := NewFlightRecorder(reg, tr, RunMeta{Tool: "test", Scenario: "roundtrip", Seed: 2, SampleRate: 0.5})
	reg.Add("events_total", L("kind", "x"), 3)
	reg.Observe("lat_seconds", nil, 0.2)
	sp := tr.StartQuery(1, "tpcw", "Home")
	sp.Child(1.1, SpanAttempt, "db1").Finish(1.9)
	sp.Finish(2)
	tickFlight(f, 10)
	tickFlight(f, 20)

	path := filepath.Join(t.TempDir(), "RUN_test.json")
	rec := f.Snapshot()
	if err := WriteRunFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteRunFile(path, rec, false); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("overwrite without force: err = %v", err)
	}
	if err := WriteRunFile(path, rec, true); err != nil {
		t.Fatalf("forced overwrite: %v", err)
	}

	got, err := LoadRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != RunSchemaVersion || got.Scenario != "roundtrip" || got.Seed != 2 || got.SampleRate != 0.5 {
		t.Fatalf("meta round-trip mismatch: %+v", got.RunMeta)
	}
	if len(got.Ticks) != len(rec.Ticks) || len(got.Series) != len(rec.Series) {
		t.Fatalf("shape mismatch: %d/%d ticks, %d/%d series",
			len(got.Ticks), len(rec.Ticks), len(got.Series), len(rec.Series))
	}
	// Histograms flatten into _count/_sum series.
	names := map[string]bool{}
	for _, s := range got.Series {
		names[s.Name] = true
	}
	if !names["lat_seconds_count"] || !names["lat_seconds_sum"] {
		t.Fatalf("histogram series missing from %v", names)
	}
	if len(got.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(got.Traces))
	}
	if err := Validate(got.Traces[0]); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	if got.Traces[0].Children[0].Name != "db1" {
		t.Error("child span lost in round trip")
	}
}

func TestDecodeRunStrict(t *testing.T) {
	for name, doc := range map[string]string{
		"wrong version": `{"schema_version": 99, "seed": 1, "sample_rate": 0, "ticks": [], "series": [], "trace_stats": {"started":0,"sampled":0,"finished":0,"evicted":0}}`,
		"trailing data": `{"schema_version": 1, "seed": 1, "sample_rate": 0, "ticks": [], "series": [], "trace_stats": {"started":0,"sampled":0,"finished":0,"evicted":0}} {"extra": true}`,
		"point count":   `{"schema_version": 1, "seed": 1, "sample_rate": 0, "ticks": [1, 2], "series": [{"name": "x", "points": [5]}], "trace_stats": {"started":0,"sampled":0,"finished":0,"evicted":0}}`,
		"not json":      `[what]`,
	} {
		if _, err := DecodeRun(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"schema_version": 1, "seed": 1, "sample_rate": 0, "ticks": [1], "series": [{"name": "x", "points": [5]}], "trace_stats": {"started":0,"sampled":0,"finished":0,"evicted":0}}`
	if _, err := DecodeRun(strings.NewReader(ok)); err != nil {
		t.Errorf("minimal valid doc rejected: %v", err)
	}
	if _, err := LoadRun(filepath.Join(t.TempDir(), "nope.json")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v", err)
	}
}

// TestDecodeRunRejectsOtherKinds feeds DecodeRun the two other
// documents that share schema_version 1, as their writers emit them: a
// BENCH and a RESIL document must fail, not load as an empty recording.
func TestDecodeRunRejectsOtherKinds(t *testing.T) {
	for kind, doc := range map[string]string{
		"BENCH": `{"schema_version": 1, "commit": "abc1234", "go_version": "go1.24.0", "goos": "linux", "goarch": "amd64", "gomaxprocs": 2, "options": {"reps": 1, "macro_reps": 1, "warmup": 0, "min_run_ns": 0, "seed": 1}, "scenarios": []}`,
		"RESIL": `{"schema_version": 1, "commit": "abc1234", "go_version": "go1.24.0", "scorecards": []}`,
	} {
		if _, err := DecodeRun(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s document: err = %v, want an unknown-field rejection", kind, err)
		}
	}
}

func TestFlightRecorderEmptyRun(t *testing.T) {
	f := NewFlightRecorder(NewRegistry(), nil, RunMeta{})
	rec := f.Snapshot()
	if rec.Ticks == nil || len(rec.Ticks) != 0 {
		// Ticks may be a nil slice; what matters is emptiness.
		if len(rec.Ticks) != 0 {
			t.Fatalf("empty run has %d ticks", len(rec.Ticks))
		}
	}
	if rec.Series == nil {
		t.Fatal("Series must encode as [] not null")
	}
	path := filepath.Join(t.TempDir(), "RUN_empty.json")
	if err := WriteRunFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(path); err != nil {
		t.Fatalf("empty recording does not round-trip: %v", err)
	}
}

// FuzzDecodeRun checks DecodeRun's contract on arbitrary input: it
// either fails, or the decoded recording re-encodes and decodes back to
// the same recording. Same means the same encoding, not deep equality:
// `"traces": []` or `"attrs": {}` decode to empty non-nil values that
// re-encode as absent fields, so the two decodings differ only in nil
// versus empty. The seed corpus lives in testdata/fuzz/FuzzDecodeRun.
func FuzzDecodeRun(f *testing.F) {
	encode := func(t *testing.T, r *RunRecording) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := r.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encode(t, r)
		again, err := DecodeRun(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decoding an encoded recording: %v\n%s", err, first)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("Encode→DecodeRun changed the recording:\nfirst  %s\nsecond %s", first, second)
		}
	})
}
