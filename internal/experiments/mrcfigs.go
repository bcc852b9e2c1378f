package experiments

import (
	"outlierlb/internal/core"
	"outlierlb/internal/mrc"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// MRCResult is a sampled miss-ratio curve with its derived parameters —
// the data behind Figures 5 and 6.
type MRCResult struct {
	Class  string
	Memory []int     // x axis: memory size in pages
	Miss   []float64 // y axis: predicted miss ratio
	Params mrc.Params
}

// mrcOf runs app under load long enough to fill the class's recent
// page-access window, then computes the MRC exactly the way the
// controller does: from the engine-side window via the log analyzer.
func (o Options) mrcOf(seed uint64, build func(tb *testbed) (analyze func() *MRCResult)) *MRCResult {
	tb := o.newTestbed(seed, 1, PoolPages, core.Config{Interval: 10})
	analyze := build(tb)
	return analyze()
}

// Figure5 reproduces the MRC of the BestSeller query class under the
// normal (indexed) configuration: the curve descends steadily until
// ~7000 pages (the paper reports 6982 pages of acceptable memory).
func (o Options) Figure5(seed uint64) *MRCResult {
	return o.mrcOf(seed, func(tb *testbed) func() *MRCResult {
		app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
		sched := tb.startApp(app)
		em := tb.emulate(sched, tpcw.Mix(), 1.0, workload.Constant(60))
		em.Start()
		return func() *MRCResult {
			tb.sim.RunUntil(600)
			em.Stop()
			eng := sched.Replicas()[0].Engine()
			a := core.NewLogAnalyzer(eng)
			curve, params, ok := a.RecomputeMRC(tpcw.ClassID(tpcw.BestSellerClass), PoolPages, 0.02)
			if !ok {
				panic("experiments: BestSeller window too small for an MRC")
			}
			mem, miss := curve.Points(64)
			return &MRCResult{Class: tpcw.BestSellerClass, Memory: mem, Miss: miss, Params: params}
		}
	})
}

// Figure6 reproduces the MRC of the RUBiS SearchItemsByRegion query
// class: acceptable memory ≈ 7900 pages (the paper reports 7906), nearly
// the entire 8192-page pool.
func (o Options) Figure6(seed uint64) *MRCResult {
	return o.mrcOf(seed, func(tb *testbed) func() *MRCResult {
		app := rubis.New(tb.sim.RNG().Fork(), "")
		sched := tb.startApp(app)
		em := tb.emulate(sched, rubis.Mix(""), 1.0, workload.Constant(60))
		em.Start()
		return func() *MRCResult {
			tb.sim.RunUntil(600)
			em.Stop()
			eng := sched.Replicas()[0].Engine()
			a := core.NewLogAnalyzer(eng)
			curve, params, ok := a.RecomputeMRC(rubis.ClassID(rubis.SearchItemsByRegionClass), PoolPages, 0.02)
			if !ok {
				panic("experiments: SearchItemsByRegion window too small for an MRC")
			}
			mem, miss := curve.Points(64)
			return &MRCResult{Class: rubis.SearchItemsByRegionClass, Memory: mem, Miss: miss, Params: params}
		}
	})
}
