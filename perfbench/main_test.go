package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"outlierlb/internal/sla"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestPrintedNames checks every metric and workload name uses only
// [A-Za-z0-9_.-], is unique, and every metric carries a unit.
func TestPrintedNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(slices.Clone(endToEndSpecs), perLayerSpecs()...) {
		if !validName.MatchString(s.Name) {
			t.Errorf("metric name %q", s.Name)
		}
		if !validUnit.MatchString(s.Unit) {
			t.Errorf("metric %s unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s better=%q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range workloads {
		if !validName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q", w.name)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T, data []byte) benchmarkDoc {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchmarkDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	if dec.More() {
		t.Fatal("trailing data after BENCHMARK.json's object")
	}
	return doc
}

// TestBenchmarkJSON checks BENCHMARK.json decodes strictly, survives a
// round trip unchanged, and lists exactly the metrics and workloads this
// program prints, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	doc := loadBenchmarkDoc(t, data)
	again, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back := loadBenchmarkDoc(t, again); !reflect.DeepEqual(doc, back) {
		t.Fatalf("round trip changed the document:\n%+v\n%+v", doc, back)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}

	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs from the printed metrics:\n got %+v\nwant %+v", doc.EndToEnd, endToEndSpecs)
	}
	if want := perLayerSpecs(); !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer differs from the printed metrics:\n got %+v\nwant %+v", doc.PerLayer, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, s := range doc.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if !slices.Equal(doc.Paths, []string{"perfbench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// syntheticRep is a repetition with every field the report reads set.
func syntheticRep(wall float64) rep {
	r := rep{wall: wall, cpu: wall, allocBytes: 1 << 20, peakHeap: 1 << 22, calls: 1}
	r.counters = counters{Arrivals: 1000, Completed: 990, Shed: 10, MaxQueueDepth: 7,
		PhaseEvents: 1200, PoolAccesses: 5000, PoolHits: 4000, Prefetches: 30, Evictions: 20, Actions: 3}
	r.counters.Pushes[1] = 1000
	r.primary = []sla.Interval{{Queries: 500, P95Latency: 0.3, Met: true}, {Queries: 490, P95Latency: 0.5}}
	return r
}

// TestDocPrintsExactlyDeclared checks both result documents carry every
// declared metric with its unit and nothing else.
func TestDocPrintsExactlyDeclared(t *testing.T) {
	reps := []rep{syntheticRep(1), syntheticRep(1.1)}
	check := func(res result, specs []spec) {
		t.Helper()
		d := res.doc()
		if len(d.Metrics) != len(specs) {
			t.Errorf("%d metrics printed, %d declared", len(d.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := d.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("metric %s printed as %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
			}
		}
		if !d.Correct || d.Attempted != 2 || d.Failed != 0 {
			t.Errorf("verdict %+v", d)
		}
	}
	e2e := newResult(reps)
	e2e.endToEnd(reps, []float64{0.002, 0.003})
	check(e2e, endToEndSpecs)
	if got := e2e.values["sla_met_frac"]; got != 0.5 {
		t.Errorf("sla_met_frac %v, want 0.5", got)
	}

	layer := newResult(reps)
	layer.perLayer(reps[:1], reps[1:], foldLedger(reps[1:]), 12.5)
	check(layer, perLayerSpecs())
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on small samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{2.5, 3, 9, 1, 7, 4, 4, 8, 6, 10}, 2.875, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSeedGroups checks every benchmark seed maps into the vetted
// pools: overload groups hold distinct seeds, none of them skipped, and
// benchmark seeds fold onto seedGroups groups.
func TestSeedGroups(t *testing.T) {
	seen := map[uint64]bool{}
	for s := uint64(0); s < seedGroups; s++ {
		for _, seed := range group(overloadPool, overloadSeedsPerRep, s) {
			if seen[seed] || slices.Contains(overloadSkip, seed) {
				t.Errorf("overload group %d: seed %d repeated or skipped", s, seed)
			}
			seen[seed] = true
		}
	}
	for _, w := range workloads {
		if a, b := w.seeds(3), w.seeds(3+seedGroups); !slices.Equal(a, b) {
			t.Errorf("%s: seeds 3 and %d map to %v and %v", w.name, 3+seedGroups, a, b)
		}
	}
}
