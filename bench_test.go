// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§5), plus ablations of the design choices and the
// overhead measurement behind the "lightweight monitoring" claim.
//
// Each experiment benchmark runs the full scenario per iteration and
// reports its headline results as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints both the cost of reproducing each result and the result itself.
// Absolute latencies differ from the paper's testbed (see EXPERIMENTS.md);
// the reported metrics preserve the shapes the paper argues from.
package outlierlb_test

import (
	"testing"

	"outlierlb/internal/experiments"
	"outlierlb/internal/mrc"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
)

// BenchmarkFigure3 regenerates §5.2: sinusoid load, reactive
// provisioning, latency back under the SLA.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Figure3(uint64(i + 1))
		b.ReportMetric(float64(r.MaxMachines()), "peak-machines")
		b.ReportMetric(r.FinalLatency(), "final-latency-s")
	}
}

// BenchmarkFigure4 regenerates §5.3's diagnosis data: per-class metric
// ratios after the O_DATE index drop and the outlier classification.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Figure4(uint64(i + 1))
		b.ReportMetric(float64(len(r.MemoryOutliers)), "memory-outliers")
		b.ReportMetric(float64(len(r.Confirmed)), "confirmed-classes")
		for j, c := range r.Classes {
			if c == "BestSeller" {
				b.ReportMetric(r.ReadAheadRatio[j], "bestseller-readahead-x")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the BestSeller miss-ratio curve
// (paper: acceptable memory 6982 pages).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Figure5(uint64(i + 1))
		b.ReportMetric(float64(r.Params.AcceptableMemory), "acceptable-pages")
	}
}

// BenchmarkFigure6 regenerates the SearchItemsByRegion miss-ratio curve
// (paper: acceptable memory ≈7906 pages).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Figure6(uint64(i + 1))
		b.ReportMetric(float64(r.Params.AcceptableMemory), "acceptable-pages")
	}
}

// BenchmarkTable1 regenerates the buffer-pool partitioning study
// (paper: non-BestSeller 96.2% shared → 99.5% partitioned → 99.9% ideal).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Table1(uint64(i + 1))
		b.ReportMetric(r.SharedRest, "rest-shared-pct")
		b.ReportMetric(r.PartitionedRest, "rest-partitioned-pct")
		b.ReportMetric(r.ExclusiveRest, "rest-exclusive-pct")
		b.ReportMetric(float64(r.BestQuota), "bestseller-quota-pages")
	}
}

// BenchmarkTable2 regenerates the shared-pool consolidation study
// (paper: TPC-W 0.54 s → 5.42 s → 1.27 s after moving SIBR).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Table2(uint64(i + 1))
		b.ReportMetric(r.Rows[0].Latency, "alone-latency-s")
		b.ReportMetric(r.Rows[1].Latency, "shared-latency-s")
		b.ReportMetric(r.Rows[2].Latency, "fixed-latency-s")
	}
}

// BenchmarkTable3 regenerates the dom-0 I/O contention study
// (paper: 1.5 s → 4.8 s → 1.5 s; SIBR contributes 87% of RUBiS I/O).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.Table3(uint64(i + 1))
		b.ReportMetric(r.Rows[0].Latency, "alone-latency-s")
		b.ReportMetric(r.Rows[1].Latency, "contended-latency-s")
		b.ReportMetric(r.Rows[2].Latency, "fixed-latency-s")
		b.ReportMetric(100*r.TopIOShare, "top-io-share-pct")
	}
}

// BenchmarkAblationQuotaVsMigrate quantifies the §3.3.2 trade-off:
// containment by quota holds one machine; migration buys latency with a
// second machine.
func BenchmarkAblationQuotaVsMigrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		quota, migrate := experiments.Options{}.AblationQuotaVsMigrate(uint64(i + 1))
		b.ReportMetric(float64(quota.ServersUsed), "quota-servers")
		b.ReportMetric(quota.FinalLatency, "quota-latency-s")
		b.ReportMetric(float64(migrate.ServersUsed), "migrate-servers")
		b.ReportMetric(migrate.FinalLatency, "migrate-latency-s")
	}
}

// BenchmarkAblationFineVsCoarse compares the fine-grained policy against
// coarse-only isolation on the consolidation scenario.
func BenchmarkAblationFineVsCoarse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fine, coarse := experiments.Options{}.AblationFineVsCoarse(uint64(i + 1))
		b.ReportMetric(float64(fine.ServersUsed), "fine-servers")
		b.ReportMetric(fine.RecoverySeconds, "fine-recovery-s")
		b.ReportMetric(float64(coarse.ServersUsed), "coarse-servers")
		b.ReportMetric(coarse.RecoverySeconds, "coarse-recovery-s")
	}
}

// BenchmarkAblationOutlierVsTopK reports how focused the outlier
// detector's candidate set is compared to blanket top-k investigation.
func BenchmarkAblationOutlierVsTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.AblationOutlierVsTopK(uint64(i + 1))
		b.ReportMetric(float64(r.OutlierCandidates), "outlier-candidates")
		found := 0.0
		if r.OutlierFoundBestSeller {
			found = 1
		}
		b.ReportMetric(found, "culprit-found")
	}
}

// BenchmarkAblationWeighting ablates the metric-impact weighting (§3):
// weighted detection focuses on heavy, affected classes; plain ratios
// flag featherweights whose ratios merely wobble.
func BenchmarkAblationWeighting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.AblationWeighting(uint64(i + 1))
		b.ReportMetric(float64(len(r.WeightedOutliers)), "weighted-flagged")
		b.ReportMetric(float64(len(r.UnweightedOutliers)), "unweighted-flagged")
		culprit := 0.0
		if r.WeightedHasCulprit {
			culprit = 1
		}
		b.ReportMetric(culprit, "weighted-has-culprit")
	}
}

// BenchmarkAblationFences sweeps the IQR fence multiplier and reports the
// flagged-class count at the paper's 1.5 setting.
func BenchmarkAblationFences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Options{}.AblationFences(uint64(i + 1))
		for _, pt := range pts {
			if pt.Inner == 1.5 {
				b.ReportMetric(float64(pt.Outliers), "flagged-at-1.5")
			}
		}
	}
}

// BenchmarkAblationMidpointVsQuota compares InnoDB-style midpoint
// insertion against the paper's quota on the §5.3 trace: the engine knob
// does not absorb cross-class pollution from a cycling scan; the quota
// does.
func BenchmarkAblationMidpointVsQuota(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.AblationMidpointVsQuota(uint64(i + 1))
		b.ReportMetric(r.SharedLRU, "rest-lru-pct")
		b.ReportMetric(r.SharedMidpoint, "rest-midpoint-pct")
		b.ReportMetric(r.Partitioned, "rest-quota-pct")
	}
}

// BenchmarkFailureRecovery crashes one of two replicas under load and
// measures the latency envelope until the controller restores capacity.
func BenchmarkFailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Options{}.FailureRecovery(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BeforeLatency, "healthy-latency-s")
		b.ReportMetric(r.DuringLatency, "failover-latency-s")
		b.ReportMetric(r.AfterLatency, "recovered-latency-s")
		b.ReportMetric(float64(r.ClientErrors), "client-errors")
	}
}

// BenchmarkAblationSyncVsAsync compares synchronous ROWA against the
// asynchronous replication substrate on a heterogeneous cluster (one
// straggler replica).
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sync, async := experiments.Options{}.AblationSyncVsAsync(uint64(i + 1))
		b.ReportMetric(sync.AvgLatency, "sync-latency-s")
		b.ReportMetric(async.AvgLatency, "async-latency-s")
		b.ReportMetric(sync.WIPS, "sync-wips")
		b.ReportMetric(async.WIPS, "async-wips")
	}
}

// BenchmarkLockContention runs the §7 future-work scenario: a write
// query invoked with "wrong arguments" convoys the accounts table; the
// detector flags the lock-wait outlier and names the holder.
func BenchmarkLockContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Options{}.LockContention(uint64(i + 1))
		b.ReportMetric(r.StableLatency, "stable-latency-s")
		b.ReportMetric(r.ContendedLatency, "contended-latency-s")
		found := 0.0
		if r.ReportedVictim != "" {
			found = 1
		}
		b.ReportMetric(found, "holder-named")
	}
}

// BenchmarkMattson measures the per-access cost of on-line MRC tracking —
// the overhead behind the paper's "lightweight monitoring" claim.
func BenchmarkMattson(b *testing.B) {
	rng := sim.NewRNG(1)
	z := trace.NewZipfSet(rng, 0, 1<<16, 1.2)
	pages := trace.Generate(z, 1<<20)
	s := mrc.NewStackSimulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(pages[i&(1<<20-1)])
	}
}

// BenchmarkMRCCompute measures one full MRC recomputation from a recent
// page-access window, the cost paid per problem query class on an SLA
// violation.
func BenchmarkMRCCompute(b *testing.B) {
	rng := sim.NewRNG(1)
	z := trace.NewZipfSet(rng, 0, 9000, 1.1)
	window := trace.Generate(z, 49152)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := mrc.Compute(window)
		_ = curve.ParamsFor(8192, mrc.DefaultThreshold)
	}
}
