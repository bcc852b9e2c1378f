package core

import (
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
)

// LogAnalyzer wraps one database engine (the paper deploys "a set of log
// analyzers, one per database system running on their server"): it
// snapshots per-class metrics, recomputes miss-ratio curves from recent
// page-access windows, and aggregates the memory need of "the rest of the
// application queries" on the engine.
type LogAnalyzer struct {
	eng     *engine.Engine
	samples int
}

// NewLogAnalyzer wraps eng with the default MRC sample count.
func NewLogAnalyzer(eng *engine.Engine) *LogAnalyzer {
	return &LogAnalyzer{eng: eng, samples: MRCSamples}
}

// Engine returns the wrapped engine.
func (a *LogAnalyzer) Engine() *engine.Engine { return a.eng }

// Snapshot returns per-class metric vectors for the past interval,
// grouped by application, and the engine's per-class stats they came
// from; withHist attaches latency histograms for observers (see
// engine.Engine.Snapshot). It resets the engine's interval counters.
func (a *LogAnalyzer) Snapshot(interval float64, withHist bool) (map[string]map[metrics.ClassID]metrics.Vector, map[metrics.ClassID]metrics.ClassStats) {
	flat := a.eng.Snapshot(interval, withHist)
	out := make(map[string]map[metrics.ClassID]metrics.Vector)
	for id, s := range flat {
		byApp := out[id.App]
		if byApp == nil {
			byApp = make(map[metrics.ClassID]metrics.Vector)
			out[id.App] = byApp
		}
		byApp[id] = s.Vector
	}
	return out, flat
}

// MRCSamples is the default fixed number of page accesses an MRC
// estimate is computed from. Fixing the sample count makes estimates from
// different points in time comparable: an MRC from a short window
// systematically under-reports deep-reuse distances, so comparing curves
// built from different window lengths would see "change" that is only
// estimator growth. Classes that have not yet issued this many accesses
// are too slow-moving for MRC-based diagnosis and are skipped.
const MRCSamples = 49152

// SetSamples overrides the per-estimate sample count (small test
// scenarios use shorter streams). Non-positive values restore the
// default.
func (a *LogAnalyzer) SetSamples(n int) {
	if n <= 0 {
		n = MRCSamples
	}
	a.samples = n
}

// RecomputeMRC rebuilds the miss-ratio curve of class id from the most
// recent sample-count page accesses of its window and derives the
// parameters for a pool of serverMemory pages. It reports false when the
// class has not yet issued enough accesses for a stationary estimate.
func (a *LogAnalyzer) RecomputeMRC(id metrics.ClassID, serverMemory int, threshold float64) (*mrc.Curve, mrc.Params, bool) {
	older, newer := a.eng.WindowTail(id, a.samples)
	if len(older)+len(newer) < a.samples {
		return nil, mrc.Params{}, false
	}
	curve := mrc.Compute(older, newer)
	return curve, curve.ParamsFor(serverMemory, threshold), true
}

// RestAcceptable estimates the acceptable memory of every class on the
// engine except the excluded ones, by merging their recent page-access
// windows into one interleaved stream and computing its MRC — "the rest
// of the application queries scheduled on the same physical server"
// treated as a single context.
func (a *LogAnalyzer) RestAcceptable(exclude map[metrics.ClassID]bool, serverMemory int, threshold float64) int {
	var windows [][]uint64
	for _, id := range a.eng.Classes() {
		if exclude[id] {
			continue
		}
		w := a.eng.Window(id)
		if len(w) > a.samples {
			w = w[len(w)-a.samples:]
		}
		if len(w) > 0 {
			windows = append(windows, w)
		}
	}
	merged := mergeWindows(windows)
	if len(merged) < 64 {
		return 0
	}
	curve := mrc.Compute(merged)
	return curve.ParamsFor(serverMemory, threshold).AcceptableMemory
}

// mergeWindows interleaves several per-class access streams into one,
// preserving each stream's internal order and drawing from streams in
// proportion to their lengths — an approximation of the original arrival
// interleaving, which the per-class windows no longer record.
func mergeWindows(windows [][]uint64) []uint64 {
	total := 0
	for _, w := range windows {
		total += len(w)
	}
	if total == 0 {
		return nil
	}
	out := make([]uint64, 0, total)
	idx := make([]int, len(windows))
	// Proportional round-robin: at each step pick the stream whose
	// progress fraction lags the furthest.
	for len(out) < total {
		best, bestLag := -1, -1.0
		for i, w := range windows {
			if idx[i] >= len(w) {
				continue
			}
			lag := float64(len(w)-idx[i]) / float64(len(w))
			if lag > bestLag {
				bestLag = lag
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Emit a small chunk to keep sequential runs intact.
		const chunk = 8
		w := windows[best]
		end := idx[best] + chunk
		if end > len(w) {
			end = len(w)
		}
		out = append(out, w[idx[best]:end]...)
		idx[best] = end
	}
	return out
}
