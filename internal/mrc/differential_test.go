package mrc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkAgainstReference feeds trace to a StackSimulator and to the
// reference simulator (reference_test.go) and requires the same stack
// distance at every access and the same Histogram, ColdMisses, Distinct
// and Total at the end. It then requires Compute over the trace, cut into
// one, two and three segments at random points (empty segments
// included), to give the reference's curve. It returns the reference.
func checkAgainstReference(t *testing.T, trace []uint64, rng *rand.Rand) *refSimulator {
	t.Helper()
	got, want := NewStackSimulator(), newRefSimulator()
	for i, p := range trace {
		if g, w := got.Access(p), want.Access(p); g != w {
			t.Fatalf("access %d (page %#x): distance %d, reference %d", i, p, g, w)
		}
	}
	if !slices.Equal(got.Histogram(), want.hist) {
		t.Fatalf("histogram %v, reference %v", got.Histogram(), want.hist)
	}
	if got.ColdMisses() != want.cold || got.Distinct() != want.Distinct() || got.Total() != want.total {
		t.Fatalf("cold/distinct/total %d/%d/%d, reference %d/%d/%d",
			got.ColdMisses(), got.Distinct(), got.Total(), want.cold, want.Distinct(), want.total)
	}
	curve := want.Curve()
	for parts := 1; parts <= 3; parts++ {
		cuts := []int{0, len(trace)}
		for range parts - 1 {
			cuts = append(cuts, rng.Intn(len(trace)+1))
		}
		slices.Sort(cuts)
		segments := make([][]uint64, parts)
		for i := range segments {
			segments[i] = trace[cuts[i]:cuts[i+1]]
		}
		sameCurve(t, fmt.Sprintf("Compute over cuts %v", cuts), Compute(segments...), curve)
	}
	return want
}

// TestStackSimulatorMatchesReference runs the differential check over
// seeded traces that compact many times: small and large working sets,
// Zipf and uniform pages, and page ids that stress the page table.
func TestStackSimulatorMatchesReference(t *testing.T) {
	zipf := func(rng *rand.Rand, pages uint64) func() uint64 {
		return rand.NewZipf(rng, 1.1, 1, pages-1).Uint64
	}
	uniform := func(rng *rand.Rand, pages uint64) func() uint64 {
		return func() uint64 { return uint64(rng.Int63n(int64(pages))) }
	}
	cases := []struct {
		name  string
		n     int
		pages func(*rand.Rand) func() uint64
	}{
		{"small-uniform", 50000, func(rng *rand.Rand) func() uint64 { return uniform(rng, 40) }},
		{"small-zipf", 50000, func(rng *rand.Rand) func() uint64 { return zipf(rng, 40) }},
		{"large-uniform", 60000, func(rng *rand.Rand) func() uint64 { return uniform(rng, 5000) }},
		{"large-zipf", 120000, func(rng *rand.Rand) func() uint64 { return zipf(rng, 20000) }},
		{"extreme-ids", 50000, func(rng *rand.Rand) func() uint64 {
			// Page ids 0 and math.MaxUint64 are ordinary keys.
			next := zipf(rng, 300)
			return func() uint64 {
				switch p := next(); p {
				case 0:
					return math.MaxUint64
				case 1:
					return 0
				default:
					return math.MaxUint64 - p
				}
			}
		}},
		{"power-of-two-spacing", 50000, func(rng *rand.Rand) func() uint64 {
			// Ids spaced by 2^56 differ only in the top byte, so the
			// multiplicative hash maps them to at most 256 home slots,
			// several to each while the table is smaller than that.
			next := uniform(rng, 256)
			return func() uint64 { return next() << 56 }
		}},
		{"power-of-two-spacing-large", 60000, func(rng *rand.Rand) func() uint64 {
			next := zipf(rng, 4000)
			return func() uint64 { return next() << 40 }
		}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				next := tc.pages(rng)
				trace := make([]uint64, tc.n)
				for i := range trace {
					trace[i] = next()
				}
				if ref := checkAgainstReference(t, trace, rng); ref.compactions < 4 {
					t.Fatalf("the reference compacted %d times; lengthen the trace", ref.compactions)
				}
			})
		}
	}
}

// fuzzPage maps a fuzz byte to a page id: its low six bits pick one of
// 64 ids in the family its top two bits select. The families are small
// ids from 0, ids counting down from math.MaxUint64, and two sets spaced
// by powers of two (2^58 and 2^40), whose multiplicative hashes differ
// only in their top bits, so they share home slots in small tables.
func fuzzPage(b byte) uint64 {
	v := uint64(b & 63)
	switch b >> 6 {
	case 0:
		return v
	case 1:
		return math.MaxUint64 - v
	case 2:
		return v<<58 | 1<<57
	default:
		return v<<40 | 1<<39
	}
}

// FuzzStackDistances runs the differential check on fuzzed traces. The
// seed corpus under testdata/fuzz covers the empty trace, one page, one
// page repeated, all 256 pages distinct, reuses across the bitmap's
// first word boundary (timestamps 63, 64 and 65) and a trace long enough
// to compact.
func FuzzStackDistances(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		trace := make([]uint64, len(raw))
		for i, b := range raw {
			trace[i] = fuzzPage(b)
		}
		checkAgainstReference(t, trace, rand.New(rand.NewSource(int64(len(raw)))))
	})
}

// TestComputeConcurrent pins the package's promise that Compute is safe
// for concurrent use: goroutines computing different traces at once,
// each swapping pooled simulators sized for the others, must get the
// curves a sequential run gets.
func TestComputeConcurrent(t *testing.T) {
	const workers = 8
	traces := make([][]uint64, workers)
	want := make([]*Curve, workers)
	for i := range traces {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		z := rand.NewZipf(rng, 1.05+0.05*float64(i), 1, uint64(500*(i+1)))
		traces[i] = make([]uint64, 5000*(i+1))
		for j := range traces[i] {
			traces[i][j] = z.Uint64()
		}
		want[i] = Compute(traces[i])
	}
	got := make([][]*Curve, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				got[i] = append(got[i], Compute(traces[i]))
			}
		}()
	}
	wg.Wait()
	for i := range workers {
		for k, c := range got[i] {
			sameCurve(t, fmt.Sprintf("worker %d, call %d", i, k), c, want[i])
		}
	}
}
