package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// zipfSet is one (skew, span) a generator is built with.
type zipfSet struct {
	skew float64
	span uint64
}

// tpcwZipfSets are the TPC-W classes' sets (internal/workload/tpcw).
var tpcwZipfSets = []zipfSet{
	{1.6, 2000}, {1.15, 5000}, {1.22, 12000}, {1.4, 6000}, {1.8, 1000}, {1.25, 5000},
	{1.5, 6000}, {1.4, 4000}, {1.5, 4000}, {1.3, 4000}, {1.5, 1000}, {1.2, 6000},
}

// zipfSets lists every set the repository constructs, two more kept as
// coverage, then sets that reach the table's corners.
var zipfSets = append(append([]zipfSet{}, tpcwZipfSets...),
	// RUBiS (internal/workload/rubis) beyond the TPC-W sets.
	zipfSet{1.4, 2000}, zipfSet{1.5, 8000}, zipfSet{1.3, 6000},
	// The lock-contention scenario (internal/experiments/lock.go).
	zipfSet{1.5, 2000}, zipfSet{1.3, 3000}, zipfSet{1.3, 2000},
	// Sets no code constructs, kept as coverage: a steep skew over a
	// tiny span, and a span near 15000 pages.
	zipfSet{1.8, 16}, zipfSet{1.6, 14706},
	// examples/quickstart, mrctool's default, bench_test.go, and the
	// trace and sim package tests.
	zipfSet{1.4, 600}, zipfSet{1.2, 8000}, zipfSet{1.2, 1 << 16}, zipfSet{1.1, 9000},
	zipfSet{1.4, 100}, zipfSet{1.5, 100},
	// Corners: k past a table entry's range, skew near 1 (large error
	// amplification), steep skew over few values, the smallest span.
	zipfSet{1.2, 1 << 20}, zipfSet{1.001, 3000}, zipfSet{4, 5}, zipfSet{1.5, 1},
)

func (s zipfSet) String() string { return fmt.Sprintf("skew=%v/span=%d", s.skew, s.span) }

// TestZipfMatchesMathRand draws from Zipf and from rand.Zipf over two
// identically seeded sources and requires the same values and the same
// number of source draws.
func TestZipfMatchesMathRand(t *testing.T) {
	draws := 2_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, set := range zipfSets {
		for seed := int64(1); seed <= 3; seed++ {
			set, seed := set, seed
			t.Run(fmt.Sprintf("%v/seed=%d", set, seed), func(t *testing.T) {
				t.Parallel()
				if i, got, want := firstZipfMismatch(set.skew, set.span, seed, draws); i >= 0 {
					t.Fatalf("draw %d: got %d, math/rand %d", i, got, want)
				}
			})
		}
	}
}

// firstZipfMismatch compares n draws of Zipf against rand.Zipf, then one
// more value from each source, and returns the index of the first
// difference (n for the sources' positions), or -1.
func firstZipfMismatch(skew float64, span uint64, seed int64, n int) (int, uint64, uint64) {
	ours := rand.New(rand.NewSource(seed))
	theirs := rand.New(rand.NewSource(seed))
	z := (&RNG{r: ours}).NewZipf(skew, span)
	ref := rand.NewZipf(theirs, skew, 1, span-1)
	for i := 0; i < n; i++ {
		if got, want := z.Next(), ref.Uint64(); got != want {
			return i, got, want
		}
	}
	if got, want := uint64(ours.Int63()), uint64(theirs.Int63()); got != want {
		return n, got, want
	}
	return -1, 0, 0
}

// scriptSource is a rand.Source that returns first, then a splitmix64
// stream.
type scriptSource struct {
	first   int64
	started bool
	state   uint64
	calls   int
}

func (s *scriptSource) reset(first int64, seed uint64) {
	*s = scriptSource{first: first, state: seed}
}

func (s *scriptSource) Int63() int64 {
	s.calls++
	if !s.started {
		s.started = true
		return s.first
	}
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func (s *scriptSource) Seed(int64) {}

// cellEdges returns the Int63 values whose Float64 is the least and the
// greatest r that lands in cell c.
func cellEdges(c int) (lo, hi int64) {
	lo = int64(c) << 49
	// The greatest float64 below (c+1)·2^49 that is an integer: below 2^53
	// that is (c+1)·2^49 − 1, above it the float just below.
	hi = int64(math.Floor(math.Nextafter(float64(c+1)*(1<<49), 0)))
	return lo, hi
}

// TestZipfCellEdges drives both edges of every cell through Zipf and
// rand.Zipf with the same scripted source, so each cell's table entry is
// checked at the two draws it is most likely to get wrong. It also
// requires the sets to reach every kind of entry.
func TestZipfCellEdges(t *testing.T) {
	kinds := map[string]int{}
	for _, set := range zipfSets {
		var ours, theirs scriptSource
		z := (&RNG{r: rand.New(&ours)}).NewZipf(set.skew, set.span)
		ref := rand.NewZipf(rand.New(&theirs), set.skew, 1, set.span-1)
		for c := 0; c < zipfCells; c++ {
			lo, hi := cellEdges(c)
			for _, v := range []int64{lo, hi} {
				if r := float64(v) / (1 << 63); int(r*zipfCells) != c {
					t.Fatalf("edge %d of cell %d lands in cell %d", v, c, int(r*zipfCells))
				}
				seed := uint64(c)<<1 | uint64(v&1)
				ours.reset(v, seed)
				theirs.reset(v, seed)
				got, want := z.Next(), ref.Uint64()
				if got != want || ours.calls != theirs.calls {
					t.Fatalf("%v cell %d edge %d: got %d after %d draws, math/rand %d after %d",
						set, c, v, got, ours.calls, want, theirs.calls)
				}
			}
		}
		for _, e := range z.cells {
			switch {
			case e >= zipfAccept:
				kinds["accept"]++
			case e == zipfReject:
				kinds["reject"]++
			case e == zipfSlow:
				kinds["slow"]++
			default:
				t.Fatalf("%v: a cell is still unfilled after both its edges were drawn", set)
			}
		}
	}
	for _, k := range []string{"accept", "reject", "slow"} {
		if kinds[k] == 0 {
			t.Errorf("no set reaches a %q cell: %v", k, kinds)
		}
	}
	t.Logf("cells over %d sets: %v", len(zipfSets), kinds)
}

func TestNewZipfRejectsInvalidParameters(t *testing.T) {
	for _, tc := range []struct {
		s    float64
		n    uint64
		want string
	}{
		{1, 100, "s=1,"},
		{0.5, 100, "s=0.5,"},
		{math.NaN(), 100, "s=NaN,"},
		{1.2, 0, "n=0)"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("NewZipf(%v, %d) panicked with %q, want a message naming %q", tc.s, tc.n, msg, tc.want)
				}
			}()
			NewRNG(1).NewZipf(tc.s, tc.n)
		}()
	}
}

// FuzzZipfMatchesMathRand compares 10^4 draws of Zipf with rand.Zipf for
// any skew in (1, 64] and any span of at least one value.
func FuzzZipfMatchesMathRand(f *testing.F) {
	for _, set := range zipfSets {
		f.Add(set.skew, set.span, int64(1))
	}
	f.Fuzz(func(t *testing.T, s float64, n uint64, seed int64) {
		if !(s > 1 && s <= 64) || n == 0 {
			t.Skip()
		}
		if i, got, want := firstZipfMismatch(s, n, seed, 10_000); i >= 0 {
			t.Fatalf("skew %v span %d seed %d, draw %d: got %d, math/rand %d", s, n, seed, i, got, want)
		}
	})
}

var zipfSink uint64

// BenchmarkZipfNext draws from each TPC-W class's (skew, span) set, with
// this package's Zipf and with math/rand's as the reference.
func BenchmarkZipfNext(b *testing.B) {
	impls := []struct {
		name string
		next func(set zipfSet, r *rand.Rand) func() uint64
	}{
		{"sim", func(set zipfSet, r *rand.Rand) func() uint64 {
			return (&RNG{r: r}).NewZipf(set.skew, set.span).Next
		}},
		{"math-rand", func(set zipfSet, r *rand.Rand) func() uint64 {
			return rand.NewZipf(r, set.skew, 1, set.span-1).Uint64
		}},
	}
	for _, impl := range impls {
		for _, set := range tpcwZipfSets {
			b.Run(fmt.Sprintf("impl=%s/%v", impl.name, set), func(b *testing.B) {
				next := impl.next(set, rand.New(rand.NewSource(1)))
				for i := 0; i < b.N; i++ {
					zipfSink += next()
				}
			})
		}
	}
}
