package resil

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"outlierlb/internal/obs"
	"outlierlb/internal/sla"
)

func met(start, end, lat float64) sla.Interval {
	return sla.Interval{Start: start, End: end, AvgLatency: lat, Queries: 100, Met: true}
}

func violated(start, end, lat float64) sla.Interval {
	return sla.Interval{Start: start, End: end, AvgLatency: lat, Queries: 100, Met: false}
}

func TestScoreFullRecovery(t *testing.T) {
	in := Input{
		Scenario: "chaos-crash", Seed: 1, FaultAt: 100, ClearAt: 200, SLA: 1.0,
		RecoverStreak: 2,
		Intervals: []sla.Interval{
			met(0, 50, 0.5), met(50, 100, 0.5),
			violated(100, 150, 3.0), violated(150, 200, 2.5),
			violated(200, 250, 1.5), met(250, 300, 0.55), met(300, 350, 0.55),
			met(350, 400, 0.55),
		},
		Events: []obs.Event{
			{Time: 20, Kind: obs.EventSignature}, // pre-fault noise: ignored
			{Time: 130, Kind: obs.EventReplicaSuspected, Server: "db1"},
			{Time: 140, Kind: obs.EventQueryRetry},
			{Time: 160, Kind: obs.EventProvision},
		},
	}
	sc := Score(in)
	if !sc.Detected || sc.TimeToDetect != 30 || sc.DetectKind != "replica-suspected" {
		t.Fatalf("detect = %+v", sc)
	}
	if !sc.Mitigated || sc.TimeToMitigate != 40 || sc.MitigateKind != "query-retry" {
		t.Fatalf("mitigate = %+v", sc)
	}
	if !sc.Recovered || sc.TimeToRecover != 150 { // streak of 2 ends at t=350
		t.Fatalf("recover = %+v", sc)
	}
	if sc.Reverted {
		t.Fatalf("no revert happened, scorecard says otherwise")
	}
	// Post-recovery mean 0.55 vs pre-fault 0.5: 10% deviation.
	if sc.SteadyStateDeviation < 0.09 || sc.SteadyStateDeviation > 0.11 {
		t.Fatalf("steady-state deviation = %v, want ≈0.10", sc.SteadyStateDeviation)
	}
}

func TestScoreNeverRecovered(t *testing.T) {
	sc := Score(Input{
		Scenario: "chaos-permanent", Seed: 2, FaultAt: 100,
		Intervals: []sla.Interval{met(0, 100, 0.5), violated(100, 200, 5), violated(200, 300, 5)},
		Events:    []obs.Event{{Time: 150, Kind: obs.EventViolation}},
	})
	if !sc.Detected || sc.Mitigated || sc.Recovered {
		t.Fatalf("scorecard = %+v", sc)
	}
	if sc.TimeToMitigate != -1 || sc.TimeToRecover != -1 {
		t.Fatalf("unreached milestones must be -1, got %+v", sc)
	}
}

func TestScoreRevertCountsAsMitigation(t *testing.T) {
	sc := Score(Input{
		Scenario: "guard-always-busiest", Seed: 3, FaultAt: 100, ClearAt: 100,
		Intervals: []sla.Interval{
			met(0, 100, 0.5), violated(100, 150, 2),
			met(150, 200, 0.5), met(200, 250, 0.5), met(250, 300, 0.5),
		},
		Events: []obs.Event{
			{Time: 110, Kind: obs.EventActionSuspect},
			{Time: 110.1, Kind: obs.EventActionReverted},
		},
	})
	if !sc.Detected || sc.DetectKind != "action-suspect" {
		t.Fatalf("watchdog suspicion not counted as detection: %+v", sc)
	}
	if !sc.Mitigated || sc.MitigateKind != "action-reverted" {
		t.Fatalf("rollback not counted as mitigation: %+v", sc)
	}
	if !sc.Reverted || !sc.Recovered {
		t.Fatalf("scorecard = %+v", sc)
	}
}

func TestScorePreFaultEventsIgnored(t *testing.T) {
	sc := Score(Input{
		Scenario: "quiet", Seed: 4, FaultAt: 500,
		Events: []obs.Event{{Time: 100, Kind: obs.EventViolation}},
	})
	if sc.Detected {
		t.Fatalf("pre-fault violation counted as detection")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	d := NewDoc()
	d.Commit = "abc123"
	d.Scorecards = []Scorecard{
		{Scenario: "chaos-crash", Seed: 1, FaultAt: 100, Detected: true,
			TimeToDetect: 30, TimeToMitigate: -1, TimeToRecover: 150, Reverted: true},
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Scorecards) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Scorecards[0] != d.Scorecards[0] {
		t.Fatalf("scorecard changed in round trip:\n  in:  %+v\n  out: %+v",
			d.Scorecards[0], got.Scorecards[0])
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"schema_version": 99, "scorecards": []}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unknown version accepted: %v", err)
	}
	_, err = Decode(strings.NewReader(`{"scorecards": []}`))
	if err == nil {
		t.Fatal("missing version accepted")
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"schema_version": 1, "scorecards": []}{"extra": true}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data accepted: %v", err)
	}
}

func TestWriteFileAtomicAndRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "RESIL_test.json")
	d := NewDoc()
	if err := WriteFile(path, d, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, d, false); err == nil {
		t.Fatal("overwrite without force accepted")
	}
	if err := WriteFile(path, d, true); err != nil {
		t.Fatalf("forced overwrite failed: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Fatalf("loaded version = %d", got.SchemaVersion)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// FuzzDecode checks Decode's contract on arbitrary input: it either
// fails, or the decoded document re-encodes and decodes back to a deeply
// equal document. The seed corpus lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decoding an encoded document: %v", err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("Encode→Decode changed the document:\nfirst  %+v\nsecond %+v", d, again)
		}
	})
}
