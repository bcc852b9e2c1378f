package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, v := range []float64{0.1, 0.2, 0.3, 0.4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 0.249 || m > 0.251 {
		t.Fatalf("mean = %v", m)
	}
	if h.Min() != 0.1 || h.Max() != 0.4 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against exact order statistics on a random sample: the log-bucket
	// estimate must overshoot by at most ~15% and never undershoot the
	// true quantile by more than a bucket.
	rng := rand.New(rand.NewSource(2))
	h := NewHistogram()
	samples := make([]float64, 20000)
	for i := range samples {
		v := rng.ExpFloat64() * 0.5
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		est := h.Quantile(q)
		if est < exact*0.85 || est > exact*1.35 {
			t.Errorf("q=%.2f: exact %.4f est %.4f", q, exact, est)
		}
	}
}

func TestHistogramQuantileNeverBelowEstimateDirection(t *testing.T) {
	// Bucket-upper-bound estimation biases high — the safe direction for
	// SLA checks. Verify on a deterministic sample.
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.01)
	}
	if est := h.Quantile(0.95); est < 0.95 {
		t.Fatalf("P95 estimate %.4f below true 0.95", est)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5) // clamped
	h.Observe(0)
	h.Observe(1e6) // beyond last bucket
	if h.Min() != 0 {
		t.Fatalf("min = %v", h.Min())
	}
	if h.Max() != 1e6 {
		t.Fatalf("max = %v", h.Max())
	}
	if q := h.Quantile(1); q != 1e6 {
		t.Fatalf("Q(1) = %v", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("Q(0) = %v", q)
	}
	if q := h.Quantile(2); q != 1e6 {
		t.Fatalf("Q(2) clamped = %v", q)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(0.1)
	b.Observe(0.9)
	b.Observe(0.8)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 0.1 || a.Max() != 0.9 {
		t.Fatalf("merged extremes = %v/%v", a.Min(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Max() != 0 {
		t.Fatal("Reset incomplete")
	}
	a.Observe(0.5)
	if a.Min() != 0.5 {
		t.Fatal("min not reset")
	}
}

func TestHistogramPercentilesOrderPreserved(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 0.001)
	}
	ps := h.Percentiles(0.99, 0.5, 0.9)
	if len(ps) != 3 {
		t.Fatalf("got %d results", len(ps))
	}
	if !(ps[1] <= ps[2] && ps[2] <= ps[0]) {
		t.Fatalf("percentiles out of order: %v", ps)
	}
}

// TestBucketOfExact holds the table-driven bucketOf to the Log formula
// it replaces, bucketOfLog. It compares the two on every float64 within
// 2^16 ulps of each bucket floor and on 5M random values. That makes
// them equal for every float64 the formula is defined on: 2^16 ulps is
// a relative step of at least 2^-37, which moves the formula's real
// value, ln(v/histMin)/ln(histBase), by at least 5e-11 bucket units,
// while the formula's rounding error stays below 1e-13 of a unit. So
// outside the checked bands the truncation cannot land on the other
// side of an integer from the exact value, which is monotone.
func TestBucketOfExact(t *testing.T) {
	check := func(v float64) {
		if got, want := bucketOf(v), bucketOfLog(v); got != want {
			t.Fatalf("bucketOf(%v [%#x]) = %d, formula says %d", v, math.Float64bits(v), got, want)
		}
	}
	const band = 1 << 16
	for k, f := range bucketFloors {
		if k > 0 && f <= bucketFloors[k-1] {
			t.Fatalf("floor %d (%v) not above floor %d (%v)", k, f, k-1, bucketFloors[k-1])
		}
		bits := math.Float64bits(f)
		for d := uint64(0); d <= band; d++ {
			check(math.Float64frombits(bits - d))
			check(math.Float64frombits(bits + d))
		}
	}
	rng := rand.New(rand.NewSource(1))
	maxBits := math.Float64bits(1e304) // bucketOfLog overflows above ~1.8e304
	for i := 0; i < 5_000_000; i++ {
		switch i % 2 {
		case 0: // any non-negative float64 the formula is defined on
			check(math.Float64frombits(rng.Uint64() % maxBits))
		default: // log-uniform over the latencies the simulator produces
			check(math.Pow(10, rng.Float64()*10-6))
		}
	}
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, -1, math.Inf(-1), histMin, 1e300, 1e304} {
		check(v)
	}
}

// TestHistogramOverflowAndNaN: values past the formula's range land in
// the top bucket like 1e300 does, and a NaN sample panics with a message
// naming it instead of indexing out of range.
func TestHistogramOverflowAndNaN(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1e300, 1.8e304, math.MaxFloat64, math.Inf(1)} {
		if b := bucketOf(v); b != histBucket-1 {
			t.Errorf("bucketOf(%v) = %d, want the top bucket %d", v, b, histBucket-1)
		}
		h.Observe(v)
	}
	if h.Count() != 4 || h.counts[histBucket-1] != 4 {
		t.Fatalf("count %d, top bucket %d, want 4 and 4", h.Count(), h.counts[histBucket-1])
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "NaN") {
			t.Fatalf("Observe(NaN) recovered %q, want a panic naming NaN", msg)
		}
	}()
	h.Observe(math.NaN())
}
