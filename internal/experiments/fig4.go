package experiments

import (
	"outlierlb/internal/core"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/sla"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// Figure4Result holds the four panels of Figure 4: for every TPC-W query
// class, the ratio of the measured value after dropping the O_DATE index
// to its stable-state average — latency (a), throughput (b), buffer-pool
// misses (c) and read-ahead (d) — plus the outlier classification the
// detector produces from those measurements.
type Figure4Result struct {
	Classes         []string // query class names, mix order (ids 1..14)
	LatencyRatio    []float64
	ThroughputRatio []float64
	MissesRatio     []float64
	ReadAheadRatio  []float64
	// MemoryOutliers are the query classes whose memory-related counters
	// the IQR detector flags (the paper finds 6 mild outliers, including
	// NewProducts and BestSeller).
	MemoryOutliers []string
	// Confirmed is the subset whose recomputed MRC significantly changed
	// (the paper confirms only BestSeller).
	Confirmed []string
	// Measured is the application-level SLA outcome over the post-drop
	// measurement window (latency percentiles and throughput), for
	// distribution-level analysis such as internal/benchsuite's macro
	// percentiles.
	Measured sla.Interval
}

// Figure4 reproduces §5.3's diagnosis data: run TPC-W alone until stable,
// drop the O_DATE index (degrading the BestSeller plan to an order-line
// scan), and compare per-class metrics against the stable signature.
func (o Options) Figure4(seed uint64) *Figure4Result {
	const (
		interval = 10.0
		warmup   = 400.0
		measure  = 120.0
		clients  = 60
		think    = 2.0
	)
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{Interval: interval})
	rng := tb.sim.RNG().Fork()
	app := tpcw.New(rng, tpcw.Options{})
	sched := tb.startApp(app)
	em := tb.emulate(sched, tpcw.Mix(), think, workload.Constant(clients))
	em.Start()

	// Reach a stable state and capture the signature by hand (no
	// controller: this experiment exposes the raw detector output).
	tb.sim.RunUntil(warmup)
	// Close the pending tracker interval so the post-drop measurement
	// window is clean (no controller owns interval closing here).
	sched.Tracker().CloseInterval(warmup, warmup)
	eng := sched.Replicas()[0].Engine()
	analyzer := core.NewLogAnalyzer(eng)
	grouped, _ := analyzer.Snapshot(warmup, false)
	stable := grouped[tpcw.AppName]
	// Stable MRC parameters per class, for the confirmation step.
	stableMRC := make(map[metrics.ClassID]paramsOK)
	for id := range stable {
		if _, p, ok := analyzer.RecomputeMRC(id, PoolPages, 0.02); ok {
			stableMRC[id] = paramsOK{p: p, ok: true}
		}
	}

	// Drop the index: same template, new plan.
	dropped := tpcw.New(rng, tpcw.Options{DropODateIndex: true})
	for _, spec := range dropped.Classes {
		if spec.ID.Class == tpcw.BestSellerClass {
			if err := sched.UpdateClass(spec); err != nil {
				panic(err)
			}
		}
	}
	tb.sim.RunUntil(warmup + measure)
	em.Stop()
	measured := sched.Tracker().CloseInterval(warmup, warmup+measure)
	grouped, _ = analyzer.Snapshot(measure, false)
	current := grouped[tpcw.AppName]

	res := &Figure4Result{Measured: measured}
	ratio := func(cur, st float64) float64 {
		if st <= 0 {
			if cur <= 0 {
				return 1
			}
			return cur / 1e-3
		}
		return cur / st
	}
	for _, name := range tpcw.ClassNames() {
		id := tpcw.ClassID(name)
		cv, sv := current[id], stable[id]
		res.Classes = append(res.Classes, name)
		res.LatencyRatio = append(res.LatencyRatio, ratio(cv.Get(metrics.Latency), sv.Get(metrics.Latency)))
		res.ThroughputRatio = append(res.ThroughputRatio, ratio(cv.Get(metrics.Throughput), sv.Get(metrics.Throughput)))
		res.MissesRatio = append(res.MissesRatio, ratio(cv.Get(metrics.BufferMisses), sv.Get(metrics.BufferMisses)))
		res.ReadAheadRatio = append(res.ReadAheadRatio, ratio(cv.Get(metrics.ReadAhead), sv.Get(metrics.ReadAhead)))
	}

	// Outlier detection on the weighted metric impact values.
	reports := core.Detect(current, stable, core.DefaultFences())
	for _, r := range core.Outliers(reports) {
		if r.MemoryOutlier() {
			res.MemoryOutliers = append(res.MemoryOutliers, r.ID.Class)
		}
	}
	// Confirmation: recompute MRCs of the flagged classes; keep those
	// with significant parameter change.
	for _, name := range res.MemoryOutliers {
		id := tpcw.ClassID(name)
		_, p, ok := analyzer.RecomputeMRC(id, PoolPages, 0.02)
		if !ok {
			continue
		}
		old := stableMRC[id]
		if !old.ok || significantChange(old.p, p) {
			res.Confirmed = append(res.Confirmed, name)
		}
	}
	return res
}

type paramsOK struct {
	p  mrc.Params
	ok bool
}

func significantChange(old, new mrc.Params) bool {
	return mrc.SignificantChange(old, new, 1.25)
}
