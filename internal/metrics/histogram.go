package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates latency samples into logarithmic buckets for
// cheap, bounded-memory percentile estimates. Buckets span 100 µs to
// ~100 s with ~15% resolution; the zero value is NOT ready — use
// NewHistogram.
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
	min    float64
	max    float64
}

const (
	histMin    = 1e-4 // 100 µs
	histBase   = 1.15 // ~15% bucket growth
	histBucket = 100  // covers up to histMin * histBase^99 ≈ 110 s
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBucket), min: math.Inf(1)}
}

// bucketOfLog is the defining formula of a sample's bucket. It is
// evaluated only at start-up, to find bucketFloors, and by the test that
// holds bucketOf to it. Like bucketOf it expects a non-NaN sample; it is
// not defined from about 1.8e304 up, where v/histMin overflows.
func bucketOfLog(v float64) int {
	if v <= histMin {
		return 0
	}
	b := int(math.Log(v/histMin) / math.Log(histBase))
	if b >= histBucket {
		b = histBucket - 1
	}
	return b
}

// bucketFloors[k-1] is the least float64 that bucketOfLog puts in
// bucket k or above, for k = 1 … histBucket-1. Each is found by bisection
// over the bit patterns of positive float64s, which order like the
// values. The search range ends at 1e300, which bucketOfLog puts in the
// top bucket.
var bucketFloors = func() (f [histBucket - 1]float64) {
	for k := range f {
		lo, hi := math.Float64bits(histMin), math.Float64bits(1e300)
		for lo+1 < hi { // invariant: bucket(lo) ≤ k < bucket(hi)
			mid := lo + (hi-lo)/2
			if bucketOfLog(math.Float64frombits(mid)) > k {
				hi = mid
			} else {
				lo = mid
			}
		}
		f[k] = math.Float64frombits(hi)
	}
	return f
}()

// bucketOf returns v's bucket: the number of bucket floors at or below
// v. It equals bucketOfLog wherever that is defined (TestBucketOfExact
// checks every float64 close enough to a floor for rounding to matter,
// and a sample of the rest), and puts +Inf and every finite value beyond
// bucketOfLog's range in the top bucket.
func bucketOf(v float64) int {
	lo, hi := 0, len(bucketFloors)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bucketFloors[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// bucketUpper reports the upper bound of bucket b.
func bucketUpper(b int) float64 {
	return histMin * math.Pow(histBase, float64(b+1))
}

// Observe records one latency sample in seconds. Negative samples are
// clamped to zero. A NaN sample panics: only a simulator bug produces
// one, and it would poison the sum and the extremes.
func (h *Histogram) Observe(v float64) {
	if v != v {
		panic(fmt.Sprintf("metrics: histogram observation is %v", v))
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean reports the exact sample mean (tracked outside the buckets).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Sum reports the exact sum of all samples (tracked outside the buckets).
func (h *Histogram) Sum() float64 { return h.sum }

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram()
	c.Merge(h)
	return c
}

// Min and Max report the exact extremes.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observed sample.
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket containing the q·total-th sample — a ≤15% overestimate by
// construction, which is the safe direction for SLA checking.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	var seen int64
	for b, n := range h.counts {
		seen += n
		if seen >= rank {
			if b == histBucket-1 {
				// The top bucket is open-ended; the exact maximum is the
				// only sound bound there.
				return h.max
			}
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// CumulativeLE folds the histogram's internal log buckets onto an
// externally chosen ladder of upper bounds (ascending), returning the
// cumulative count of samples at or below each bound — the shape a
// Prometheus `le`-bucketed histogram exposes. Each internal bucket's
// samples are attributed to the first ladder bound ≥ the bucket's upper
// edge (the conservative direction, consistent with Quantile); samples
// above the last bound are only in the implicit +Inf bucket, i.e.
// Count().
func (h *Histogram) CumulativeLE(bounds []float64) []int64 {
	out := make([]int64, len(bounds))
	for b, n := range h.counts {
		if n == 0 {
			continue
		}
		upper := bucketUpper(b)
		if b == histBucket-1 && h.max > upper {
			// The top bucket is open-ended; place its samples by the
			// exact maximum instead of the nominal edge.
			upper = h.max
		}
		i := sort.SearchFloat64s(bounds, upper)
		for ; i < len(bounds); i++ {
			out[i] += n
		}
	}
	return out
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for b, n := range other.counts {
		h.counts[b] += n
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
	h.min = math.Inf(1)
}

// Percentiles is a convenience for rendering several quantiles at once,
// returned in the same order as the requested qs.
func (h *Histogram) Percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	// Sorting is unnecessary for correctness (Quantile is O(buckets))
	// but keeps the common call Percentiles(0.5, 0.95, 0.99) cheap and
	// predictable.
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return qs[idx[a]] < qs[idx[b]] })
	for _, i := range idx {
		out[i] = h.Quantile(qs[i])
	}
	return out
}
