// Package core implements the paper's contribution: outlier detection
// over per-query-class metrics, stable-state signatures, MRC-based memory
// interference diagnosis, a buffer-pool quota solver, and the selective
// retuning controller that ties them to the cluster's schedulers and
// resource manager.
//
// Concurrency: the Controller ticks on the simulation goroutine
// (internal/sim) and owns everything it touches, engines included; the
// engine snapshot taken at each tick flushes the engine's logging
// buffer first, so the controller always reasons over a complete
// interval.
package core

import (
	"math"
	"sort"

	"outlierlb/internal/metrics"
)

// Outlierness classifies one weighted metric value against the IQR
// fences of §3.3.1.
type Outlierness int

// The classification levels. Extreme implies outside the mild fence too.
const (
	NotOutlier Outlierness = iota
	MildOutlier
	ExtremeOutlier
)

func (o Outlierness) String() string {
	switch o {
	case MildOutlier:
		return "mild"
	case ExtremeOutlier:
		return "extreme"
	default:
		return "none"
	}
}

// Report is the per-query-class result of outlier detection.
type Report struct {
	ID metrics.ClassID
	// Impact holds the metric impact values: (current / stable) × weight.
	Impact metrics.Vector
	// ByMetric classifies each metric's impact value.
	ByMetric [metrics.NumMetrics]Outlierness
}

// IsOutlier reports whether any metric of the class is at least mild.
func (r Report) IsOutlier() bool {
	for _, o := range r.ByMetric {
		if o != NotOutlier {
			return true
		}
	}
	return false
}

// MemoryOutlier reports whether any *memory-related* counter (page
// accesses, misses, read-ahead) is at least mild — the §3.3.2 trigger for
// MRC recomputation.
func (r Report) MemoryOutlier() bool {
	for _, m := range metrics.MemoryMetrics {
		if r.ByMetric[m] != NotOutlier {
			return true
		}
	}
	return false
}

// Max returns the strongest classification across metrics.
func (r Report) Max() Outlierness {
	max := NotOutlier
	for _, o := range r.ByMetric {
		if o > max {
			max = o
		}
	}
	return max
}

// ratioFloor avoids infinite ratios when a stable value is zero: the
// stable denominator is floored at this fraction of the current value,
// capping any single ratio at 1/ratioFloor.
const ratioFloor = 1e-3

// impactValues computes, for every class, the weighted metric impact
// values of §3.3.1:
//
//  1. ratio   = current / stable (per class, per metric);
//  2. weight  = current / min positive current across classes for the
//     same metric, so heavyweight classes score higher;
//  3. impact  = ratio × weight.
//
// Classes present in current but missing from stable get ratio 1 applied
// to their weight only when stable is non-empty for that class; brand-new
// classes are treated as ratio = current/floor, making them stand out (a
// new query class is by definition a deviation from the stable state).
func impactValues(current, stable map[metrics.ClassID]metrics.Vector, weighted bool) map[metrics.ClassID]metrics.Vector {
	// Per-metric minimum positive current value, for weights.
	var minCur [metrics.NumMetrics]float64
	for m := 0; m < metrics.NumMetrics; m++ {
		minCur[m] = math.Inf(1)
	}
	for _, v := range current {
		for m := 0; m < metrics.NumMetrics; m++ {
			if v[m] > 0 && v[m] < minCur[m] {
				minCur[m] = v[m]
			}
		}
	}
	out := make(map[metrics.ClassID]metrics.Vector, len(current))
	for id, cur := range current {
		st, hasStable := stable[id]
		var impact metrics.Vector
		for m := 0; m < metrics.NumMetrics; m++ {
			c := cur[m]
			if c < 0 {
				c = 0
			}
			var ratio float64
			switch {
			case !hasStable:
				// New query class: deviation is the value itself over a
				// floor, so active new classes rank as strong deviants.
				ratio = c / math.Max(ratioFloor, c*ratioFloor)
				if c == 0 {
					ratio = 1
				}
			case st[m] <= 0:
				if c == 0 {
					ratio = 1
				} else {
					ratio = c / math.Max(st[m], c*ratioFloor)
				}
			default:
				ratio = c / st[m]
			}
			weight := 1.0
			if weighted && !math.IsInf(minCur[m], 1) && minCur[m] > 0 && c > 0 {
				weight = c / minCur[m]
			}
			impact[m] = ratio * weight
		}
		out[id] = impact
	}
	return out
}

// quartiles returns Q1 and Q3 of vals using linear interpolation between
// order statistics (type-7, the common spreadsheet definition). vals must
// be non-empty; it is sorted in place.
func quartiles(vals []float64) (q1, q3 float64) {
	sort.Float64s(vals)
	n := len(vals)
	if n == 1 {
		return vals[0], vals[0]
	}
	at := func(p float64) float64 {
		h := p * float64(n-1)
		lo := int(math.Floor(h))
		hi := int(math.Ceil(h))
		if lo == hi {
			return vals[lo]
		}
		return vals[lo] + (h-float64(lo))*(vals[hi]-vals[lo])
	}
	return at(0.25), at(0.75)
}

// Quartiles returns Q1 and Q3 of vals using the same type-7 linear
// interpolation the §3.3.1 box-plot detector uses internally, so other
// subsystems (internal/benchsuite aggregates benchmark samples with it)
// share one quartile definition. vals must be non-empty; it is sorted in
// place.
func Quartiles(vals []float64) (q1, q3 float64) {
	return quartiles(vals)
}

// Fences are the IQR multipliers separating mild and extreme outliers.
// The paper uses the classic 1.5 (inner) and 3.0 (outer).
type Fences struct {
	Inner float64
	Outer float64
}

// DefaultFences returns the classic Tukey fences.
func DefaultFences() Fences { return Fences{Inner: 1.5, Outer: 3.0} }

// Detect runs outlier context detection: it computes metric impact
// values for every class, then classifies each metric's impact value
// against the IQR fences computed across classes for that metric.
// The reports are returned keyed by class.
func Detect(current, stable map[metrics.ClassID]metrics.Vector, f Fences) map[metrics.ClassID]*Report {
	return detect(current, stable, f, true)
}

// DetectUnweighted classifies plain current/stable ratios without the
// per-metric heaviness weights — the ablation of the paper's §3
// hypothesis that a class matters when it is either heavyweight with a
// moderate deviation or moderate with a large one. Without weights, a
// heavyweight class whose metrics grow by the same factor as everyone
// else's is indistinguishable from the crowd.
func DetectUnweighted(current, stable map[metrics.ClassID]metrics.Vector, f Fences) map[metrics.ClassID]*Report {
	return detect(current, stable, f, false)
}

func detect(current, stable map[metrics.ClassID]metrics.Vector, f Fences, weighted bool) map[metrics.ClassID]*Report {
	if f.Inner <= 0 {
		f = DefaultFences()
	}
	if f.Outer < f.Inner {
		f.Outer = f.Inner * 2
	}
	impacts := impactValues(current, stable, weighted)
	reports := make(map[metrics.ClassID]*Report, len(impacts))
	for id, v := range impacts {
		reports[id] = &Report{ID: id, Impact: v}
	}
	for m := 0; m < metrics.NumMetrics; m++ {
		vals := make([]float64, 0, len(impacts))
		for _, v := range impacts {
			vals = append(vals, v[m])
		}
		if len(vals) < 4 {
			// Too few classes for a meaningful quartile spread.
			continue
		}
		q1, q3 := quartiles(vals)
		iqr := q3 - q1
		innerLo, innerHi := q1-f.Inner*iqr, q3+f.Inner*iqr
		outerLo, outerHi := q1-f.Outer*iqr, q3+f.Outer*iqr
		for id, v := range impacts {
			switch {
			case v[m] < outerLo || v[m] > outerHi:
				reports[id].ByMetric[m] = ExtremeOutlier
			case v[m] < innerLo || v[m] > innerHi:
				reports[id].ByMetric[m] = MildOutlier
			}
		}
	}
	return reports
}

// Outliers filters reports down to outlier contexts, sorted by strength
// (extreme first) then class name for determinism.
func Outliers(reports map[metrics.ClassID]*Report) []*Report {
	var out []*Report
	for _, r := range reports {
		if r.IsOutlier() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].Max(), out[j].Max(); a != b {
			return a > b
		}
		return out[i].ID.String() < out[j].ID.String()
	})
	return out
}

// TopKByMemory returns the k heaviest classes by combined memory-metric
// current values — the fallback of §3.3.2 when no outlier contexts are
// found. Ties break by class name.
func TopKByMemory(current map[metrics.ClassID]metrics.Vector, k int) []metrics.ClassID {
	type scored struct {
		id    metrics.ClassID
		score float64
	}
	all := make([]scored, 0, len(current))
	for id, v := range current {
		s := 0.0
		for _, m := range metrics.MemoryMetrics {
			s += v[m]
		}
		all = append(all, scored{id, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id.String() < all[j].id.String()
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]metrics.ClassID, 0, k)
	for _, s := range all[:k] {
		out = append(out, s.id)
	}
	return out
}
