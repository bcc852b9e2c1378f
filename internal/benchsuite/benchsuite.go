// Package benchsuite runs the repository's curated performance suite and
// serializes the results to the versioned BENCH_*.json schema, giving the
// repo a machine-readable performance trajectory and a CI regression
// gate (Compare).
//
// The suite covers two kinds of scenarios. Micro scenarios time the hot
// paths the paper requires to be nearly free on the query path (§4's
// private logging buffers, collector accumulation, snapshot swaps,
// admission's entry gate, Mattson stack-distance updates). Macro
// scenarios run whole experiments (Figure 3, Figure 4, the gray-failure
// chaos drill, the overload brownout) and report wall time plus
// sim-domain latency percentiles and throughput.
//
// Aggregation is outlier-robust by construction: every scenario runs
// several repetitions and is summarized by the median with IQR
// dispersion — the same box-plot statistics internal/core uses for
// §3.3.1 outlier detection (core.Quartiles) — rather than a mean a
// single scheduler hiccup could drag. Huang et al. (see PAPERS.md) make
// the case that variance, not averages, is the signal in database
// benchmarking; keeping the per-rep samples in the JSON preserves it.
//
// Concurrency: a Runner is single-owner — construct it, call Run on one
// goroutine, read the Run result. Scenario closures must finish
// everything they start before they return.
package benchsuite

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"outlierlb/internal/core"
)

// Options controls repetition counts and run lengths for one suite run.
type Options struct {
	// Reps is the number of timed repetitions per micro scenario; the
	// published number is the median across them. Minimum 3 for a
	// meaningful IQR.
	Reps int
	// MacroReps is the number of timed repetitions per macro scenario.
	// Macro runs are whole experiments, so this is typically smaller.
	MacroReps int
	// Warmup is the number of untimed runs before measurement starts.
	Warmup int
	// MinRunTime is the target duration of one timed micro repetition;
	// the iteration count is calibrated up until a rep takes at least
	// this long.
	MinRunTime time.Duration
	// Seed drives the macro scenarios' deterministic simulations.
	Seed uint64
}

// DefaultOptions returns the full-suite settings used to produce the
// committed baselines.
func DefaultOptions() Options {
	return Options{Reps: 7, MacroReps: 3, Warmup: 1, MinRunTime: 100 * time.Millisecond, Seed: 1}
}

// ShortOptions returns reduced settings for CI: enough repetitions for a
// median and an IQR, short enough to gate every push.
func ShortOptions() Options {
	return Options{Reps: 3, MacroReps: 1, Warmup: 1, MinRunTime: 25 * time.Millisecond, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Reps < 3 {
		o.Reps = 3
	}
	if o.MacroReps < 1 {
		o.MacroReps = 1
	}
	if o.MinRunTime <= 0 {
		o.MinRunTime = d.MinRunTime
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// MacroMetrics is what a macro scenario reports about its simulated run,
// in the simulation's virtual-time domain (deterministic for a fixed
// seed, unlike the wall-clock samples the harness takes around it).
type MacroMetrics struct {
	LatencyP50 float64 // median query latency, seconds
	LatencyP95 float64 // 95th-percentile query latency, seconds
	LatencyP99 float64 // 99th-percentile query latency, seconds
	Throughput float64 // completed interactions per second
}

// Scenario is one suite entry. Exactly one of Micro or Macro is set.
type Scenario struct {
	Name string
	Kind string // "micro" or "macro"
	Doc  string // one-line description of what is measured

	// Micro returns a fresh measurement closure plus an optional cleanup
	// (may be nil); calling run executes n iterations of the measured
	// operation. State lives in the closure, so each RunScenario starts
	// clean, and cleanup stops anything the setup started (worker
	// goroutines) once the scenario is done.
	Micro func() (run func(n int), cleanup func())

	// Macro runs the full scenario once for the given seed and reports
	// its sim-domain metrics.
	Macro func(seed uint64) (MacroMetrics, error)
}

// Stats is the outlier-robust aggregate of one scenario's repeated
// samples: median with IQR dispersion (type-7 quartiles, shared with the
// §3.3.1 box-plot detector via core.Quartiles) plus the raw samples so
// downstream analysis can re-aggregate.
type Stats struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	IQR     float64   `json:"iqr"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// Aggregate summarizes samples (non-empty) into Stats. The input is
// copied, not mutated.
func Aggregate(samples []float64) Stats {
	vals := append([]float64(nil), samples...)
	q1, q3 := core.Quartiles(vals) // sorts vals in place
	n := len(vals)
	var median float64
	if n%2 == 1 {
		median = vals[n/2]
	} else {
		median = (vals[n/2-1] + vals[n/2]) / 2
	}
	return Stats{
		Median:  median,
		Q1:      q1,
		Q3:      q3,
		IQR:     q3 - q1,
		Min:     vals[0],
		Max:     vals[n-1],
		Samples: samples,
	}
}

// RelIQR is the scenario's relative dispersion, IQR / median — the noise
// floor Compare refuses to classify changes below.
func (s Stats) RelIQR() float64 {
	if s.Median == 0 {
		return 0
	}
	return s.IQR / s.Median
}

// Result is one scenario's aggregated outcome.
type Result struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Doc  string `json:"doc,omitempty"`
	// N is the calibrated iteration count per timed repetition (1 for
	// macro scenarios, whose unit of work is the whole experiment).
	N int `json:"n"`
	// NsPerOp aggregates wall nanoseconds per operation across reps.
	NsPerOp Stats `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp come from one untimed instrumented pass
	// (runtime.MemStats deltas); they include allocations by goroutines
	// the scenario drives, which is the steady-state cost that matters.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Sim-domain metrics, macro scenarios only.
	LatencyP50 float64 `json:"latency_p50_s,omitempty"`
	LatencyP95 float64 `json:"latency_p95_s,omitempty"`
	LatencyP99 float64 `json:"latency_p99_s,omitempty"`
	Throughput float64 `json:"throughput_qps,omitempty"`
}

// RunScenario executes one scenario under opt and aggregates its
// repetitions.
func RunScenario(s Scenario, opt Options) (Result, error) {
	opt = opt.withDefaults()
	switch {
	case s.Micro != nil:
		return runMicro(s, opt), nil
	case s.Macro != nil:
		return runMacro(s, opt)
	}
	return Result{}, fmt.Errorf("benchsuite: scenario %q defines neither Micro nor Macro", s.Name)
}

// runMicro calibrates the iteration count to MinRunTime, warms up, takes
// opt.Reps wall-clock samples, then one instrumented pass for allocation
// counters.
func runMicro(s Scenario, opt Options) Result {
	run, cleanup := s.Micro()
	if cleanup != nil {
		defer cleanup()
	}

	// Calibrate: grow n geometrically until one rep meets MinRunTime.
	n := 64
	for {
		start := time.Now()
		run(n)
		elapsed := time.Since(start)
		if elapsed >= opt.MinRunTime || n >= 1<<30 {
			break
		}
		grow := 2.0
		if elapsed > 0 {
			if byTime := 1.2 * float64(opt.MinRunTime) / float64(elapsed); byTime > grow {
				grow = byTime
			}
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}

	for i := 0; i < opt.Warmup; i++ {
		run(n)
	}

	samples := make([]float64, 0, opt.Reps)
	for i := 0; i < opt.Reps; i++ {
		start := time.Now()
		run(n)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}

	allocs, bytes := measureAllocs(func() { run(n) }, n)

	return Result{
		Name:        s.Name,
		Kind:        s.Kind,
		Doc:         s.Doc,
		N:           n,
		NsPerOp:     Aggregate(samples),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
	}
}

// measureAllocs runs fn once between two MemStats reads and returns the
// allocation deltas per operation. The reads cover the whole process.
func measureAllocs(fn func(), n int) (allocsPerOp, bytesPerOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// runMacro times opt.MacroReps full experiment runs and keeps the last
// run's sim-domain metrics (identical across reps: the simulation is
// deterministic for a fixed seed).
func runMacro(s Scenario, opt Options) (Result, error) {
	var mm MacroMetrics
	samples := make([]float64, 0, opt.MacroReps)
	for i := 0; i < opt.MacroReps; i++ {
		start := time.Now()
		m, err := s.Macro(opt.Seed)
		if err != nil {
			return Result{}, fmt.Errorf("benchsuite: scenario %q: %w", s.Name, err)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
		mm = m
	}
	return Result{
		Name:       s.Name,
		Kind:       s.Kind,
		Doc:        s.Doc,
		N:          1,
		NsPerOp:    Aggregate(samples),
		LatencyP50: mm.LatencyP50,
		LatencyP95: mm.LatencyP95,
		LatencyP99: mm.LatencyP99,
		Throughput: mm.Throughput,
	}, nil
}

// Run executes every scenario in order and assembles a Run document.
// A progress callback (may be nil) is invoked before each scenario.
func Run(scenarios []Scenario, opt Options, progress func(Scenario)) (*RunDoc, error) {
	opt = opt.withDefaults()
	doc := NewRunDoc(opt)
	for _, s := range scenarios {
		if progress != nil {
			progress(s)
		}
		res, err := RunScenario(s, opt)
		if err != nil {
			return nil, err
		}
		doc.Scenarios = append(doc.Scenarios, res)
	}
	return doc, nil
}

// percentile returns the type-7 interpolated p-quantile (0 ≤ p ≤ 1) of
// vals, which must be non-empty; vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 1 {
		return vals[0]
	}
	h := p * float64(n-1)
	lo := int(h)
	frac := h - float64(lo)
	if lo+1 >= n {
		return vals[n-1]
	}
	return vals[lo] + frac*(vals[lo+1]-vals[lo])
}
