package experiments

import "testing"

func TestAblationQuotaVsMigrateTradeoff(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	quota, migrate := Options{}.AblationQuotaVsMigrate(1)
	// The §3.3.2 trade-off: the quota holds the application on one
	// machine; migration spends a second machine for lower latency.
	if quota.ServersUsed != 1 {
		t.Errorf("quota policy used %d servers, want 1", quota.ServersUsed)
	}
	if migrate.ServersUsed != 2 {
		t.Errorf("migration policy used %d servers, want 2", migrate.ServersUsed)
	}
	if migrate.FinalLatency >= quota.FinalLatency {
		t.Errorf("migration latency %.3f not below quota latency %.3f",
			migrate.FinalLatency, quota.FinalLatency)
	}
	// Both remedies keep the system in a usable state.
	if quota.FinalLatency > 1.0 || migrate.FinalLatency > 1.0 {
		t.Errorf("remedied latencies too high: quota %.3f migrate %.3f",
			quota.FinalLatency, migrate.FinalLatency)
	}
}

func TestAblationFineVsCoarse(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	fine, coarse := Options{}.AblationFineVsCoarse(1)
	// Both policies eventually restore the victim.
	if fine.RecoverySeconds < 0 {
		t.Errorf("fine-grained policy never recovered")
	}
	if coarse.RecoverySeconds < 0 {
		t.Errorf("coarse policy never recovered")
	}
	// The fine-grained policy never uses more machines than coarse
	// isolation (it moves one class rather than whole applications).
	if fine.ServersUsed > coarse.ServersUsed {
		t.Errorf("fine-grained used %d servers, coarse %d", fine.ServersUsed, coarse.ServersUsed)
	}
	if fine.FinalLatency > 1.0 {
		t.Errorf("fine-grained final latency %.3f above SLA", fine.FinalLatency)
	}
}

func TestAblationFencesSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	pts := Options{}.AblationFences(1)
	if len(pts) == 0 {
		t.Fatal("no sweep points")
	}
	// Outlier counts are non-increasing as fences widen, and the paper's
	// 1.5 setting still catches the culprit.
	prev := 1 << 30
	for _, pt := range pts {
		if pt.Outliers > prev {
			t.Errorf("outliers increased from %d to %d at fence %.1f", prev, pt.Outliers, pt.Inner)
		}
		prev = pt.Outliers
		if pt.Inner == 1.5 && !pt.HasBestSeller {
			t.Error("default fences missed BestSeller")
		}
	}
}

func TestAblationMidpointVsQuota(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.AblationMidpointVsQuota(1)
	// Engine-level scan resistance does not fix cross-class interference
	// here: the unindexed BestSeller cycles and re-touches pages, so its
	// pollution gets promoted past the midpoint. The quota is what
	// restores the rest of the application.
	if r.SharedMidpoint > r.Partitioned-3 {
		t.Fatalf("midpoint (%.1f%%) unexpectedly rivals the quota (%.1f%%)",
			r.SharedMidpoint, r.Partitioned)
	}
	if r.Partitioned <= r.SharedLRU {
		t.Fatalf("quota (%.1f%%) did not beat shared LRU (%.1f%%)",
			r.Partitioned, r.SharedLRU)
	}
	// BestSeller itself stays within a few points under every policy.
	for _, v := range []float64{r.BestLRU, r.BestMidpoint, r.BestPart} {
		if v < r.BestLRU-5 {
			t.Fatalf("a policy cost BestSeller too much: %v", r)
		}
	}
}

func TestAblationSyncVsAsync(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	sync, async := Options{}.AblationSyncVsAsync(1)
	// On a heterogeneous cluster, synchronous ROWA is bound by the
	// straggler on every write; async hides it.
	if async.AvgLatency >= sync.AvgLatency/2 {
		t.Fatalf("async latency %.3f not well below sync %.3f", async.AvgLatency, sync.AvgLatency)
	}
	if async.WIPS <= sync.WIPS {
		t.Fatalf("async throughput %.1f not above sync %.1f", async.WIPS, sync.WIPS)
	}
}

func TestAblationWeighting(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.AblationWeighting(1)
	if !r.WeightedHasCulprit {
		t.Fatalf("weighted detection missed BestSeller: %v", r.WeightedOutliers)
	}
	// The weighted scheme must not flag featherweight classes whose
	// ratios merely wobble (the unweighted variant typically does).
	for _, c := range r.WeightedOutliers {
		if c == "AdminRequest" || c == "OrderDisplay" {
			t.Fatalf("weighted detection flagged featherweight %s", c)
		}
	}
}

func TestAblationOutlierVsTopKFocus(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.AblationOutlierVsTopK(1)
	if !r.OutlierFoundBestSeller {
		t.Error("outlier detection missed the culprit")
	}
	// The detector investigates a small candidate set, comparable to or
	// smaller than blanket top-k.
	if r.OutlierCandidates > 6 {
		t.Errorf("outlier detection flagged %d classes, want a focused set", r.OutlierCandidates)
	}
}
