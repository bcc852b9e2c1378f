package experiments

import (
	"testing"

	"outlierlb/internal/core"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// These tests assert the *shape* of each reproduced table/figure — who
// wins, rough factors, where crossovers fall — per the reproduction
// contract in DESIGN.md. Absolute values differ from the paper because
// the substrate is a simulator.

func TestFigure3Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Figure3(1)
	if len(r.Times) == 0 {
		t.Fatal("no samples")
	}
	// (a) the load is a sinusoid: it rises and falls.
	maxC, minC := 0, 1<<30
	for _, c := range r.Clients {
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	if maxC < 2*minC+100 {
		t.Fatalf("load not sinusoidal enough: %d..%d", minC, maxC)
	}
	// (b) allocation grows under load and shrinks at the trough.
	if r.MaxMachines() < 2 {
		t.Fatalf("never provisioned beyond 1 machine")
	}
	sawShrink := false
	for _, a := range r.Actions {
		if a.Kind == core.ActionShrink {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Error("allocation never shrank at the trough")
	}
	// (c) latency ends below the SLA after adaptation.
	if r.FinalLatency() > r.SLA {
		t.Fatalf("final latency %.3f above SLA %.1f", r.FinalLatency(), r.SLA)
	}
	// Violations are transient: most intervals meet the SLA.
	viol := 0
	for _, l := range r.Latency {
		if l > r.SLA {
			viol++
		}
	}
	if viol*4 > len(r.Latency) {
		t.Fatalf("%d/%d intervals violate: adaptation ineffective", viol, len(r.Latency))
	}
}

func TestFigure4Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Figure4(1)
	if len(r.Classes) != 14 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	bs := -1
	for i, c := range r.Classes {
		if c == tpcw.BestSellerClass {
			bs = i
		}
	}
	if bs < 0 {
		t.Fatal("BestSeller missing")
	}
	// The paper: latency rises broadly, throughput falls, misses rise;
	// only a few classes see a sharp read-ahead increase.
	latUp, tputDown := 0, 0
	for i := range r.Classes {
		if r.LatencyRatio[i] > 1.5 {
			latUp++
		}
		if r.ThroughputRatio[i] < 1.0 {
			tputDown++
		}
	}
	if latUp < 7 {
		t.Errorf("only %d/14 classes slowed; expected broad latency impact", latUp)
	}
	if tputDown < 7 {
		t.Errorf("only %d/14 classes lost throughput", tputDown)
	}
	sharpRA := 0
	for i := range r.Classes {
		if r.ReadAheadRatio[i] > 10 {
			sharpRA++
		}
	}
	if sharpRA == 0 || sharpRA > 3 {
		t.Errorf("read-ahead spiked in %d classes, want 1..3 (paper: only a few)", sharpRA)
	}
	if r.ReadAheadRatio[bs] <= 10 {
		t.Error("BestSeller read-ahead did not spike")
	}
	// Outlier detection flags BestSeller among the memory outliers, and
	// the MRC confirmation narrows the diagnosis down to BestSeller.
	foundBS := false
	for _, c := range r.MemoryOutliers {
		if c == tpcw.BestSellerClass {
			foundBS = true
		}
	}
	if !foundBS {
		t.Errorf("BestSeller not among memory outliers %v", r.MemoryOutliers)
	}
	if len(r.Confirmed) != 1 || r.Confirmed[0] != tpcw.BestSellerClass {
		t.Errorf("confirmed = %v, want exactly [BestSeller]", r.Confirmed)
	}
}

func TestFigure5Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Figure5(1)
	if r.Class != tpcw.BestSellerClass {
		t.Fatalf("class = %q", r.Class)
	}
	// Paper: the indexed BestSeller needs ≈6982 pages.
	if r.Params.AcceptableMemory < 5500 || r.Params.AcceptableMemory > 8192 {
		t.Fatalf("acceptable memory = %d, want ≈7000", r.Params.AcceptableMemory)
	}
	// The curve is non-increasing and spans a real range.
	for i := 1; i < len(r.Miss); i++ {
		if r.Miss[i] > r.Miss[i-1]+1e-9 {
			t.Fatal("MRC not non-increasing")
		}
	}
	if r.Miss[0] < 0.9 || r.Miss[len(r.Miss)-1] > 0.3 {
		t.Fatalf("MRC range [%.2f..%.2f] not curve-like", r.Miss[0], r.Miss[len(r.Miss)-1])
	}
}

func TestFigure6Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Figure6(1)
	if r.Class != rubis.SearchItemsByRegionClass {
		t.Fatalf("class = %q", r.Class)
	}
	// Paper: acceptable memory ≈ 7906 pages — nearly the whole pool.
	if r.Params.AcceptableMemory < 7000 || r.Params.AcceptableMemory > 8192 {
		t.Fatalf("acceptable memory = %d, want ≈7900", r.Params.AcceptableMemory)
	}
}

func TestTable1Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Table1(1)
	// Partitioning must lift the non-BestSeller hit ratio toward its
	// exclusive ideal...
	if r.PartitionedRest <= r.SharedRest {
		t.Fatalf("partitioning did not help the rest: %.1f vs %.1f", r.PartitionedRest, r.SharedRest)
	}
	if r.ExclusiveRest < r.PartitionedRest-1.0 {
		t.Fatalf("partitioned rest %.1f above its exclusive ideal %.1f", r.PartitionedRest, r.ExclusiveRest)
	}
	// ...while BestSeller stays within a few points of its shared and
	// exclusive hit ratios (paper: 95.5 / 95.7 / 96.1).
	if diff := r.SharedBest - r.PartitionedBest; diff > 5 {
		t.Fatalf("partitioning cost BestSeller %.1f points", diff)
	}
	if r.BestQuota <= 0 || r.BestQuota >= PoolPages {
		t.Fatalf("quota = %d", r.BestQuota)
	}
	// All percentages sane.
	for _, v := range []float64{r.SharedBest, r.SharedRest, r.PartitionedBest,
		r.PartitionedRest, r.ExclusiveBest, r.ExclusiveRest} {
		if v < 0 || v > 100 {
			t.Fatalf("hit ratio out of range: %v", v)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Table2(1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	alone, shared, fixed := r.Rows[0], r.Rows[1], r.Rows[2]
	// Paper: latency rises ~10x under the shared pool, throughput drops.
	if shared.Latency < 3*alone.Latency {
		t.Fatalf("shared latency %.3f not ≫ alone %.3f", shared.Latency, alone.Latency)
	}
	if shared.WIPS > 0.9*alone.WIPS {
		t.Fatalf("shared WIPS %.1f did not drop from %.1f", shared.WIPS, alone.WIPS)
	}
	// After the reschedule, TPC-W recovers most of its performance.
	if fixed.Latency > 0.5*shared.Latency {
		t.Fatalf("fixed latency %.3f did not recover from %.3f", fixed.Latency, shared.Latency)
	}
	if fixed.WIPS < 0.8*alone.WIPS {
		t.Fatalf("fixed WIPS %.1f below 80%% of alone %.1f", fixed.WIPS, alone.WIPS)
	}
	// The diagnosis moved exactly the paper's class.
	if r.MovedClass != rubis.SearchItemsByRegionClass {
		t.Fatalf("moved %q, want SearchItemsByRegion", r.MovedClass)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.Table3(1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	alone, contended, fixed := r.Rows[0], r.Rows[1], r.Rows[2]
	// Paper: latency 1.5 → 4.8 s (3.2×), WIPS 97 → 30; after removing
	// SIBR from domain-2: back to 1.5 s / 95.
	if contended.Latency < 2*alone.Latency {
		t.Fatalf("contention latency %.3f not ≫ alone %.3f", contended.Latency, alone.Latency)
	}
	if fixed.Latency > 1.5*alone.Latency {
		t.Fatalf("fixed latency %.3f did not return to baseline %.3f", fixed.Latency, alone.Latency)
	}
	if fixed.WIPS < 0.9*alone.WIPS {
		t.Fatalf("fixed WIPS %.1f below baseline %.1f", fixed.WIPS, alone.WIPS)
	}
	// The diagnosis: CPU low, one class dominating its app's I/O.
	if r.CPUUtilization > 0.5 {
		t.Fatalf("CPU utilization %.2f not low during I/O contention", r.CPUUtilization)
	}
	if r.TopIOClass != "rubis-2/SearchItemsByRegion" && r.TopIOClass != "rubis-1/SearchItemsByRegion" {
		t.Fatalf("top I/O class = %q", r.TopIOClass)
	}
	if r.TopIOShare < 0.6 {
		t.Fatalf("top I/O share %.2f, want ≫ 0.5 (paper: 87%%)", r.TopIOShare)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	a, b := Options{}.Table3(7), Options{}.Table3(7)
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("Table3 row %d differs across runs with same seed", i)
		}
	}
}
