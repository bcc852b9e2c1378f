package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"outlierlb/internal/simcore"
	"outlierlb/perfbench/ledger"
)

// spec declares one printed metric. The same lists, with the bounds,
// are what BENCHMARK.json says (a test holds them equal).
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics of an untraced run. Host metrics are
// medians over the run's repetitions; sim-domain ones are exact per seed.
// Throughput is per second of the process's CPU time, not of wall time:
// on a shared VM the wall time of a repetition includes the time the
// vCPU was descheduled (steal), which moved one workload's wall time
// 2.3x across ten runs while its CPU time moved 1.4x. The CPU time
// includes the collector's and any background goroutine's, so a
// separate CPU-seconds metric would only restate sim_qps.
var endToEndSpecs = []spec{
	{"sim_qps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_query", "B", "lower", 0.15},
	{"peak_heap_mb", "MiB", "lower", 0.15},
	{"sla_met_frac", "frac", "higher", 0.1},
	{"sim_p95_latency_s", "s", "lower", 0.25},
}

// modulePrefix is the package prefix whose first element names a layer.
const modulePrefix = "outlierlb/internal/"

// layers are the ledger rows, in data-flow order. Package sim is the
// facade over simcore and is charged to it; internal packages outside
// this list (sla, server, storage, lockmgr, experiments, guard, ...) are
// charged to "other".
var layers = []string{
	"workload", "trace", "wltemporal", "cluster", "admission", "engine",
	"bufferpool", "mrc", "core", "ctrlnet", "metrics", "simcore", "obs",
	ledger.Runtime, "other",
}

// sparseLayers are layers some workload never runs (fig3-provisioning
// has no admission controller, no open-loop cohort and no observer) or
// that collect only a handful of samples in a run (trace, ctrlnet). The
// ledger lines print their self time like any other layer's, but the
// result document carries only their sample counts: a time that reads
// zero in every run of a workload carries no information.
var sparseLayers = []string{"trace", "wltemporal", "admission", "ctrlnet", "obs"}

func layerOf(pkg string) string {
	if pkg == "sim" {
		return "simcore"
	}
	if slices.Contains(layers, pkg) {
		return pkg
	}
	return "other"
}

// entryPoints are the public entry points whose cumulative time the
// traced run reports.
var entryPoints = []struct{ metric, fn string }{
	{"cluster.Submit.cum_s", modulePrefix + "cluster.(*Scheduler).Submit"},
	{"engine.Execute.cum_s", modulePrefix + "engine.(*Engine).Execute"},
	{"bufferpool.Access.cum_s", modulePrefix + "bufferpool.(*Pool).Access"},
	{"mrc.Compute.cum_s", modulePrefix + "mrc.Compute"},
	{"core.Tick.cum_s", modulePrefix + "core.(*Controller).Tick"},
	{"metrics.Apply.cum_s", modulePrefix + "metrics.(*Collector).Apply"},
}

func entryFuncs() []string {
	out := make([]string, len(entryPoints))
	for i, e := range entryPoints {
		out[i] = e.fn
	}
	return out
}

// pushKinds are the simulation event kinds whose queue pushes are
// reported per query. Message pushes are left out: over the perfect
// control channel every scenario here uses, messages are delivered
// inline and never become events.
var pushKinds = []simcore.Kind{
	simcore.KindArrival, simcore.KindIntervalTick, simcore.KindControlAction,
}

// perLayerSpecs are the metrics of a traced run.
func perLayerSpecs() []spec {
	var out []spec
	for _, l := range layers {
		if !slices.Contains(sparseLayers, l) {
			out = append(out, spec{Name: l + ".self_s", Unit: "s", Better: "lower"})
		}
		out = append(out, spec{Name: l + ".samples", Unit: "count", Better: "lower"})
	}
	for _, e := range entryPoints {
		out = append(out, spec{Name: e.metric, Unit: "s", Better: "lower"})
	}
	for _, k := range pushKinds {
		out = append(out, spec{Name: "simcore." + k.String() + ".pushes_per_query", Unit: "count/query", Better: "lower"})
	}
	return append(out,
		spec{Name: "simcore.pushes_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "simcore.max_queue_depth", Unit: "count", Better: "lower"},
		spec{Name: "workload.arrivals_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "workload.completed_queries", Unit: "count", Better: "higher"},
		spec{Name: "admission.shed_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "engine.phase_events_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "bufferpool.accesses_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "bufferpool.hit_ratio", Unit: "frac", Better: "higher"},
		spec{Name: "bufferpool.prefetches_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "bufferpool.evictions_per_query", Unit: "count/query", Better: "lower"},
		spec{Name: "core.actions", Unit: "count", Better: "lower"},
		spec{Name: "mrc.compute_us_per_kaccess", Unit: "us/kaccess", Better: "lower"},
		spec{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	)
}

// specBound is the end-to-end bound of the named metric (0 if none).
func specBound(name string) float64 {
	for _, s := range endToEndSpecs {
		if s.Name == name {
			return s.Bound
		}
	}
	return 0
}

// result is one run's verdict and metric values.
type result struct {
	attempted, failed int
	failures          []string
	specs             []spec
	values            map[string]float64
}

func newResult(reps []rep) result {
	res := result{values: map[string]float64{}}
	for _, r := range reps {
		res.attempted += r.calls
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	return res
}

// endToEnd fills the untraced metrics from the run's repetitions and
// set-up samples.
func (res *result) endToEnd(reps []rep, setups []float64) {
	res.specs = endToEndSpecs
	per := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = f(&reps[i])
		}
		return median(xs)
	}
	res.values["sim_qps"] = per(func(r *rep) float64 { return float64(r.counters.Completed) / r.cpu })
	res.values["setup_s"] = median(setups)
	res.values["alloc_bytes_per_query"] = per(func(r *rep) float64 { return float64(r.allocBytes) / float64(r.counters.Completed) })
	res.values["peak_heap_mb"] = per(func(r *rep) float64 { return float64(r.peakHeap) / (1 << 20) })
	// Every repetition reproduces the same intervals; read the first.
	var met int
	var p95s []float64
	for _, iv := range reps[0].primary {
		if iv.Met {
			met++
		}
		if iv.Queries > 0 {
			p95s = append(p95s, iv.P95Latency)
		}
	}
	res.values["sla_met_frac"] = ratio(float64(met), float64(len(reps[0].primary)))
	// The mean, not the median, across intervals: the tracker's p95 is a
	// histogram bucket bound, so a median lands on the same bucket value
	// for every seed of a workload.
	var p95Sum float64
	for _, x := range p95s {
		p95Sum += x
	}
	res.values["sim_p95_latency_s"] = ratio(p95Sum, float64(len(p95s)))
}

// perLayer fills the traced metrics: the profiled repetitions' ledger
// (seconds per repetition), the exact counters, the MRC kernel timing
// and the profiling overhead against the untraced repetitions.
func (res *result) perLayer(plain, prof []rep, lg layerLedger, mrcUsPerKAccess float64) {
	res.specs = perLayerSpecs()
	for _, name := range layers {
		if !slices.Contains(sparseLayers, name) {
			res.values[name+".self_s"] = lg.seconds(lg.Self[name])
		}
		res.values[name+".samples"] = float64(lg.Self[name])
	}
	for _, e := range entryPoints {
		res.values[e.metric] = lg.seconds(lg.Cum[e.fn])
	}
	c := plain[0].counters
	q := float64(c.Completed)
	var pushes uint64
	for _, p := range c.Pushes {
		pushes += p
	}
	for _, k := range pushKinds {
		res.values["simcore."+k.String()+".pushes_per_query"] = float64(c.Pushes[k]) / q
	}
	res.values["simcore.pushes_per_query"] = float64(pushes) / q
	res.values["simcore.max_queue_depth"] = float64(c.MaxQueueDepth)
	res.values["workload.arrivals_per_query"] = float64(c.Arrivals) / q
	res.values["workload.completed_queries"] = q
	res.values["admission.shed_per_query"] = float64(c.Shed) / q
	res.values["engine.phase_events_per_query"] = float64(c.PhaseEvents) / q
	res.values["bufferpool.accesses_per_query"] = float64(c.PoolAccesses) / q
	res.values["bufferpool.hit_ratio"] = ratio(float64(c.PoolHits), float64(c.PoolAccesses))
	res.values["bufferpool.prefetches_per_query"] = float64(c.Prefetches) / q
	res.values["bufferpool.evictions_per_query"] = float64(c.Evictions) / q
	res.values["core.actions"] = float64(c.Actions)
	res.values["mrc.compute_us_per_kaccess"] = mrcUsPerKAccess
	res.values["trace.overhead_frac"] = median(cpus(prof)) / median(cpus(plain))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultDoc struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// doc is the final JSON line. It prints exactly the declared metrics; a
// value computed but not declared, or declared but not computed, is a
// bug in this file.
func (res *result) doc() resultDoc {
	d := resultDoc{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}
	for _, s := range res.specs {
		v, ok := res.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("perfbench: metric %s has no finite value", s.Name))
		}
		d.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(d.Metrics) != len(res.values) {
		panic(fmt.Sprintf("perfbench: %d values computed for %d declared metrics", len(res.values), len(d.Metrics)))
	}
	return d
}

// layerLedger is the profiled repetitions' samples folded onto layers,
// with the CPU time they cover.
type layerLedger struct {
	ledger.Ledger
	raw  map[string]int64 // by internal package, before folding
	cpu  float64          // measured CPU seconds of the profiled repetitions
	reps int
}

func foldLedger(prof []rep) layerLedger {
	var raw ledger.Ledger
	lg := layerLedger{reps: len(prof)}
	for i := range prof {
		raw.Add(prof[i].ledger)
		lg.cpu += prof[i].cpu
	}
	lg.Ledger = ledger.Ledger{Self: map[string]int64{}, Cum: raw.Cum, Total: raw.Total}
	lg.raw = raw.Self
	for pkg, n := range raw.Self {
		lg.Self[layerOf(pkg)] += n
	}
	return lg
}

// seconds converts a sample count into CPU seconds per repetition, as
// its share of the samples times the measured CPU time.
func (lg layerLedger) seconds(samples int64) float64 {
	return ratio(float64(samples), float64(lg.Total)) * lg.cpu / float64(lg.reps)
}

// printLedger prints every layer's self time and the entry points'
// cumulative time, per profiled repetition, and what "other" holds.
func (b *bench) printLedger(lg layerLedger) {
	share := func(n int64) float64 { return 100 * ratio(float64(n), float64(lg.Total)) }
	fmt.Fprintf(b.out, "ledger: %d profiled repetition(s), %d samples, %.3f s CPU per repetition\n",
		lg.reps, lg.Total, lg.cpu/float64(lg.reps))
	for _, name := range layers {
		n := lg.Self[name]
		fmt.Fprintf(b.out, "ledger: %-22s %8.3f s %5.1f%%  samples %6d\n", name+".self_s", lg.seconds(n), share(n), n)
	}
	for _, e := range entryPoints {
		n := lg.Cum[e.fn]
		fmt.Fprintf(b.out, "ledger: %-22s %8.3f s %5.1f%%  samples %6d\n", e.metric, lg.seconds(n), share(n), n)
	}
	var other []string
	for pkg, n := range lg.raw {
		if layerOf(pkg) == "other" {
			other = append(other, fmt.Sprintf("%s=%d", pkg, n))
		}
	}
	slices.Sort(other)
	fmt.Fprintf(b.out, "ledger: other.samples by package: %s\n", strings.Join(other, " "))
}
