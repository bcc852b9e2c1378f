package experiments

import (
	"outlierlb/internal/bufferpool"
	"outlierlb/internal/core"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload/tpcw"
)

// Table1Result reproduces Table 1: buffer-pool hit ratios of the
// (unindexed) BestSeller query class and of all other TPC-W queries
// under three managements of one 8192-page pool — fully shared,
// partitioned with the MRC-derived quota, and the exclusive ideal where
// each side owns a whole pool.
type Table1Result struct {
	// Hit ratios in percent, as in the paper's table.
	SharedBest, SharedRest           float64
	PartitionedBest, PartitionedRest float64
	ExclusiveBest, ExclusiveRest     float64
	// BestQuota is the quota the solver assigns to BestSeller
	// (paper: 3695 pages out of 8192).
	BestQuota int
}

const (
	bestKey = "BestSeller"
	restKey = "Rest"
)

// table1Trace builds the interleaved page-access trace of the TPC-W
// shopping mix with the O_DATE index dropped, labelling each access as
// BestSeller or Rest — the paper's "simulator of buffer pool management
// driven by traces of page accesses per query class".
func table1Trace(rng *sim.RNG, n int) trace.Trace {
	app := tpcw.New(rng, tpcw.Options{DropODateIndex: true})
	var classes []string
	var gens []trace.Generator
	var weights []float64
	mix := tpcw.Mix()
	for i, spec := range app.Classes {
		label := restKey
		if spec.ID.Class == tpcw.BestSellerClass {
			label = bestKey
		}
		classes = append(classes, label)
		gens = append(gens, spec.Pattern)
		// Page-level weight: interaction share × pages per query.
		weights = append(weights, mix[i].Weight*float64(spec.PagesPerQuery))
	}
	return trace.Interleave(rng.Fork(), n, classes, gens, weights)
}

// replay drives a pool with the trace and returns both classes' hit
// ratios in percent, skipping the first warmFrac of accesses so cold
// misses do not dominate.
func replay(pool *bufferpool.Pool, tr trace.Trace, warmFrac float64) (best, rest float64) {
	warm := int(float64(len(tr)) * warmFrac)
	for i, a := range tr {
		if i == warm {
			pool.ResetStats()
		}
		pool.Access(pool.Class(a.Class), a.Page)
	}
	return 100 * pool.Stats(bestKey).HitRatio(), 100 * pool.Stats(restKey).HitRatio()
}

// MidpointResult compares three answers to §5.3's scan pollution on the
// same trace: classic shared LRU (the paper's configuration), InnoDB's
// midpoint-insertion LRU (an engine-level knob), and the paper's
// MRC-derived quota partition.
type MidpointResult struct {
	// Non-BestSeller hit ratios in percent under each management.
	SharedLRU      float64
	SharedMidpoint float64
	Partitioned    float64
	// BestSeller hit ratios under the same three.
	BestLRU      float64
	BestMidpoint float64
	BestPart     float64
}

// AblationMidpointVsQuota quantifies how much of the §5.3 damage
// midpoint insertion absorbs on its own, compared to the quota the
// paper's diagnosis derives.
func AblationMidpointVsQuota(seed uint64) *MidpointResult {
	const (
		accesses = 2_000_000
		warm     = 0.25
	)
	rng := sim.NewRNG(seed)
	tr := table1Trace(rng, accesses)

	res := &MidpointResult{}
	res.BestLRU, res.SharedLRU = replay(bufferpool.MustNew(poolConfig(PoolPages)), tr, warm)

	mid := poolConfig(PoolPages)
	mid.MidpointFraction = 0.375 // InnoDB's default old-sublist share
	res.BestMidpoint, res.SharedMidpoint = replay(bufferpool.MustNew(mid), tr, warm)

	curve := mrc.Compute(tr.Pages(bestKey))
	params := curve.ParamsFor(PoolPages, mrc.DefaultThreshold)
	part := bufferpool.MustNew(poolConfig(PoolPages))
	if err := part.SetQuota(bestKey, params.AcceptableMemory); err != nil {
		panic(err)
	}
	res.BestPart, res.Partitioned = replay(part, tr, warm)
	return res
}

// Table1 reproduces §5.3's partitioning study.
func Table1(seed uint64) *Table1Result {
	const (
		accesses = 2_000_000
		warm     = 0.25
	)
	rng := sim.NewRNG(seed)
	tr := table1Trace(rng, accesses)
	cfg := poolConfig(PoolPages)

	res := &Table1Result{}

	// Derive BestSeller's quota from its MRC, as the controller would.
	bestPages := tr.Pages(bestKey)
	curve := mrc.Compute(bestPages)
	params := curve.ParamsFor(PoolPages, mrc.DefaultThreshold)
	id := metrics.ClassID{App: "tpcw", Class: bestKey}
	plan := core.SolveQuotas(PoolPages, map[metrics.ClassID]mrc.Params{id: params}, PoolPages/2)
	quota := params.AcceptableMemory
	if plan.Feasible {
		quota = plan.Quotas[id]
	}
	res.BestQuota = quota

	// Shared pool.
	res.SharedBest, res.SharedRest = replay(bufferpool.MustNew(cfg), tr, warm)

	// Partitioned pool: BestSeller confined to its quota.
	part := bufferpool.MustNew(cfg)
	if err := part.SetQuota(bestKey, quota); err != nil {
		panic(err)
	}
	res.PartitionedBest, res.PartitionedRest = replay(part, tr, warm)

	// Exclusive pools: each side alone in a full-size pool — the ideal
	// each can reach, equivalent to isolating BestSeller on its own
	// replica.
	exclBest := bufferpool.MustNew(cfg)
	exclRest := bufferpool.MustNew(cfg)
	var bestTrace, restTrace trace.Trace
	for _, a := range tr {
		if a.Class == bestKey {
			bestTrace = append(bestTrace, a)
		} else {
			restTrace = append(restTrace, a)
		}
	}
	res.ExclusiveBest, _ = replay(exclBest, bestTrace, warm)
	_, res.ExclusiveRest = replay(exclRest, restTrace, warm)
	return res
}
