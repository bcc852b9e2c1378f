package benchsuite

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleDoc() *RunDoc {
	d := NewRunDoc(Options{Reps: 5, MacroReps: 2, Warmup: 1, MinRunTime: 50 * time.Millisecond, Seed: 7})
	d.Commit = "abc1234"
	d.Scenarios = []Result{
		{
			Name: "micro-a", Kind: "micro", Doc: "a", N: 4096,
			NsPerOp:     Aggregate([]float64{100, 102, 98, 101, 99}),
			AllocsPerOp: 0.5, BytesPerOp: 16,
		},
		{
			Name: "macro-b", Kind: "macro", Doc: "b", N: 1,
			NsPerOp:    Aggregate([]float64{5e9, 5.1e9}),
			LatencyP50: 0.2, LatencyP95: 0.9, LatencyP99: 1.4, Throughput: 250,
		},
	}
	return d
}

// TestRoundTrip checks that a document survives encode→decode bit-true.
func TestRoundTrip(t *testing.T) {
	d := sampleDoc()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", d, got)
	}
}

// TestDecodeRejectsUnknownVersion checks the loader refuses documents
// from a different schema generation instead of guessing.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	for _, v := range []int{0, 2, 99} {
		raw, _ := json.Marshal(map[string]any{"schema_version": v})
		_, err := Decode(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "schema_version") {
			t.Fatalf("version %d: err = %v, want schema_version rejection", v, err)
		}
	}
}

// TestDecodeRejectsTrailingData checks single-document framing: a
// concatenated or appended file must not silently load its first half.
func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleDoc().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("{}")
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-data rejection", err)
	}
}

// TestWriteFileRefusesOverwrite checks the committed-baseline guard: an
// existing path is refused without force and replaced atomically with.
func TestWriteFileRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_0.json")
	d := sampleDoc()
	if err := WriteFile(path, d, false); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := WriteFile(path, d, false); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("overwrite err = %v, want refusal", err)
	}
	d.Commit = "def5678"
	if err := WriteFile(path, d, true); err != nil {
		t.Fatalf("forced write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Commit != "def5678" {
		t.Fatalf("Commit = %q after forced write, want def5678", got.Commit)
	}
	// The temp+rename idiom must not leave droppings behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after writes, want 1", len(entries))
	}
}

// TestLoadErrors checks missing files and malformed JSON surface errors.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("Load of malformed file succeeded")
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
