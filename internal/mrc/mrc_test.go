package mrc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// directLRU is a reference LRU cache used to cross-validate the stack
// simulator: by the inclusion property, the number of hits a size-m LRU
// cache sees equals the number of accesses with stack distance ≤ m.
type directLRU struct {
	cap   int
	order []uint64 // MRU first
	set   map[uint64]bool
}

func newDirectLRU(capacity int) *directLRU {
	return &directLRU{cap: capacity, set: make(map[uint64]bool)}
}

func (l *directLRU) access(p uint64) bool {
	if l.set[p] {
		for i, q := range l.order {
			if q == p {
				copy(l.order[1:i+1], l.order[:i])
				l.order[0] = p
				break
			}
		}
		return true
	}
	if len(l.order) == l.cap {
		victim := l.order[len(l.order)-1]
		delete(l.set, victim)
		l.order = l.order[:len(l.order)-1]
	}
	l.order = append([]uint64{p}, l.order...)
	l.set[p] = true
	return false
}

func TestStackDistanceSimpleSequence(t *testing.T) {
	s := NewStackSimulator()
	// a b c a: 'a' re-accessed after b, c => distance 3.
	seq := []uint64{1, 2, 3, 1}
	var got []int
	for _, p := range seq {
		got = append(got, s.Access(p))
	}
	want := []int{ColdMiss, ColdMiss, ColdMiss, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
}

func TestStackDistanceImmediateReuse(t *testing.T) {
	s := NewStackSimulator()
	s.Access(7)
	if d := s.Access(7); d != 1 {
		t.Fatalf("immediate reuse distance = %d, want 1", d)
	}
}

func TestStackSimulatorCounters(t *testing.T) {
	s := NewStackSimulator()
	for _, p := range []uint64{1, 2, 1, 3, 2, 1} {
		s.Access(p)
	}
	if s.Total() != 6 {
		t.Errorf("Total = %d, want 6", s.Total())
	}
	if s.ColdMisses() != 3 {
		t.Errorf("ColdMisses = %d, want 3", s.ColdMisses())
	}
	if s.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", s.Distinct())
	}
}

func TestStackMatchesDirectLRUOnRandomTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trace := make([]uint64, 4000)
	for i := range trace {
		trace[i] = uint64(rng.Intn(60))
	}
	s := NewStackSimulator()
	dists := make([]int, len(trace))
	for i, p := range trace {
		dists[i] = s.Access(p)
	}
	for _, m := range []int{1, 2, 5, 10, 30, 60, 100} {
		lru := newDirectLRU(m)
		wantHits := 0
		for _, p := range trace {
			if lru.access(p) {
				wantHits++
			}
		}
		gotHits := 0
		for _, d := range dists {
			if d != ColdMiss && d <= m {
				gotHits++
			}
		}
		if gotHits != wantHits {
			t.Fatalf("m=%d: stack hits %d, direct LRU hits %d", m, gotHits, wantHits)
		}
	}
}

func TestStackMatchesDirectLRUProperty(t *testing.T) {
	f := func(raw []uint8, m8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		m := int(m8%16) + 1
		s := NewStackSimulator()
		lru := newDirectLRU(m)
		for _, b := range raw {
			p := uint64(b % 32)
			d := s.Access(p)
			hit := lru.access(p)
			if hit != (d != ColdMiss && d <= m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionPreservesDistances(t *testing.T) {
	// Force many compactions with a long trace and verify against the
	// direct LRU on the fly.
	rng := rand.New(rand.NewSource(11))
	s := NewStackSimulator()
	lru := newDirectLRU(8)
	for i := 0; i < 50000; i++ {
		p := uint64(rng.Intn(40))
		d := s.Access(p)
		hit := lru.access(p)
		if hit != (d != ColdMiss && d <= 8) {
			t.Fatalf("divergence at access %d (page %d, dist %d, hit %v)", i, p, d, hit)
		}
	}
}

func TestCurveMonotoneNonIncreasing(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewStackSimulator()
		for _, b := range raw {
			s.Access(uint64(b % 64))
		}
		c := s.Curve()
		prev := 1.1
		for m := 0; m <= c.MaxMemory(); m++ {
			mr := c.MissRatio(m)
			if mr < 0 || mr > 1 || mr > prev+1e-12 {
				return false
			}
			prev = mr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCurveValuesExact(t *testing.T) {
	// Trace: 1 2 1 2 1 2 — 4 re-accesses at distance 2, 2 cold misses.
	c := Compute([]uint64{1, 2, 1, 2, 1, 2})
	if got := c.MissRatio(0); got != 1 {
		t.Errorf("MR(0) = %v, want 1", got)
	}
	if got := c.MissRatio(1); got != 1 {
		t.Errorf("MR(1) = %v, want 1 (distance-2 reuses miss with 1 page)", got)
	}
	if got := c.MissRatio(2); got != 2.0/6.0 {
		t.Errorf("MR(2) = %v, want 1/3 (only the 2 cold misses)", got)
	}
	if got := c.MissRatio(100); got != 2.0/6.0 {
		t.Errorf("MR(∞) = %v, want 1/3", got)
	}
}

func TestCurveEmptyTrace(t *testing.T) {
	c := Compute(nil)
	if c.MissRatio(0) != 0 || c.MissRatio(10) != 0 {
		t.Error("empty-trace curve should be all zero")
	}
	if c.Total() != 0 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestParamsForSequentialScan(t *testing.T) {
	// A repeated sequential scan over 100 pages has a cliff-shaped MRC:
	// with <100 pages LRU gets no reuse hits, with 100 it gets all.
	var trace []uint64
	for rep := 0; rep < 20; rep++ {
		for p := uint64(0); p < 100; p++ {
			trace = append(trace, p)
		}
	}
	c := Compute(trace)
	p := c.ParamsFor(8192, 0.02)
	if p.TotalMemory != 100 {
		t.Errorf("TotalMemory = %d, want 100", p.TotalMemory)
	}
	if p.AcceptableMemory != 100 {
		t.Errorf("AcceptableMemory = %d, want 100 (cliff curve)", p.AcceptableMemory)
	}
	if p.IdealMissRatio >= 0.1 {
		t.Errorf("IdealMissRatio = %v, want small (only cold misses)", p.IdealMissRatio)
	}
}

// TestParamsForNaNThreshold pins that a NaN threshold, like a
// non-positive one, falls back to DefaultThreshold instead of making no
// memory size acceptable below the total.
func TestParamsForNaNThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	z := rand.NewZipf(rng, 1.2, 1, 2000)
	trace := make([]uint64, 20000)
	for i := range trace {
		trace[i] = z.Uint64()
	}
	c := Compute(trace)
	want := c.ParamsFor(8192, DefaultThreshold)
	if want.AcceptableMemory == want.TotalMemory {
		t.Fatalf("acceptable == total (%d); the check needs a curve with slack", want.AcceptableMemory)
	}
	if got := c.ParamsFor(8192, math.NaN()); got != want {
		t.Fatalf("ParamsFor(NaN) = %+v, want the default threshold's %+v", got, want)
	}
}

func TestParamsCappedByServerMemory(t *testing.T) {
	var trace []uint64
	for rep := 0; rep < 10; rep++ {
		for p := uint64(0); p < 1000; p++ {
			trace = append(trace, p)
		}
	}
	c := Compute(trace)
	p := c.ParamsFor(256, 0.02)
	if p.TotalMemory > 256 {
		t.Errorf("TotalMemory = %d exceeds server memory 256", p.TotalMemory)
	}
}

func TestParamsAcceptableBelowTotal(t *testing.T) {
	// Zipf-like reuse: most hits concentrate at small distances, so the
	// acceptable memory should be well below the total memory.
	rng := rand.New(rand.NewSource(17))
	z := rand.NewZipf(rng, 1.3, 1, 499)
	trace := make([]uint64, 60000)
	for i := range trace {
		trace[i] = z.Uint64()
	}
	c := Compute(trace)
	p := c.ParamsFor(100000, 0.02)
	if p.AcceptableMemory > p.TotalMemory {
		t.Fatalf("acceptable %d > total %d", p.AcceptableMemory, p.TotalMemory)
	}
	if p.AcceptableMemory == p.TotalMemory {
		t.Fatalf("acceptable == total (%d); expected slack on a skewed curve", p.AcceptableMemory)
	}
	if p.AcceptableMissRatio > p.IdealMissRatio+0.02+1e-9 {
		t.Fatalf("acceptable miss ratio %v exceeds ideal %v + threshold", p.AcceptableMissRatio, p.IdealMissRatio)
	}
}

func TestSignificantGrowth(t *testing.T) {
	old := Params{TotalMemory: 1000, AcceptableMemory: 600}
	if SignificantGrowth(old, old, 1.25) {
		t.Error("unchanged params flagged as growth")
	}
	grown := Params{TotalMemory: 2000, AcceptableMemory: 600}
	if !SignificantGrowth(old, grown, 1.25) {
		t.Error("doubled total memory not flagged")
	}
	slightly := Params{TotalMemory: 1100, AcceptableMemory: 620}
	if SignificantGrowth(old, slightly, 1.25) {
		t.Error("10% growth flagged at factor 1.25")
	}
	fromZero := Params{TotalMemory: 0, AcceptableMemory: 0}
	if !SignificantGrowth(fromZero, grown, 1.25) {
		t.Error("growth from zero not flagged (new query class case)")
	}
}

func TestCurvePoints(t *testing.T) {
	var trace []uint64
	for rep := 0; rep < 5; rep++ {
		for p := uint64(0); p < 50; p++ {
			trace = append(trace, p)
		}
	}
	c := Compute(trace)
	mem, miss := c.Points(11)
	if len(mem) != 11 || len(miss) != 11 {
		t.Fatalf("Points returned %d/%d entries", len(mem), len(miss))
	}
	if mem[0] != 0 || mem[10] != c.MaxMemory() {
		t.Fatalf("Points endpoints = %d..%d, want 0..%d", mem[0], mem[10], c.MaxMemory())
	}
	for i := 1; i < len(miss); i++ {
		if miss[i] > miss[i-1]+1e-12 {
			t.Fatal("sampled curve not non-increasing")
		}
	}
}

func TestHistogramDense(t *testing.T) {
	s := NewStackSimulator()
	for _, p := range []uint64{1, 2, 3, 1, 1} {
		s.Access(p)
	}
	h := s.Histogram()
	// distance 3 once (first reuse of 1), distance 1 once (second reuse).
	if h[0] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestReset(t *testing.T) {
	s := NewStackSimulator()
	for _, p := range []uint64{1, 2, 1} {
		s.Access(p)
	}
	s.Reset()
	if s.Total() != 0 || s.ColdMisses() != 0 || s.Distinct() != 0 {
		t.Fatal("Reset left counters behind")
	}
	if d := s.Access(1); d != ColdMiss {
		t.Fatalf("after Reset, first access distance = %d, want ColdMiss", d)
	}
}

// TestResetReusesAllocations pins the Reset fix: resetting and refilling
// a warmed simulator must not allocate (maps cleared in place, tree
// zeroed in place).
func TestResetReusesAllocations(t *testing.T) {
	s := NewStackSimulator()
	fill := func() {
		// 500 accesses keeps the clock below the 1024-slot tree, so no
		// compact (which legitimately allocates) triggers mid-run.
		for i := 0; i < 500; i++ {
			s.Access(uint64(i % 97))
		}
	}
	fill()
	s.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("Reset+refill allocates %.1f objects per cycle, want 0", allocs)
	}
}

func TestNewCurveFromHistogram(t *testing.T) {
	c := NewCurveFromHistogram([]int64{4, 0}, 2)
	if got := c.MissRatio(1); got != 2.0/6.0 {
		t.Errorf("MR(1) = %v, want 1/3", got)
	}
}

func BenchmarkStackAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	s := NewStackSimulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(z.Uint64())
	}
}

// sameCurve fails t unless a and b are identical curves.
func sameCurve(t *testing.T, what string, a, b *Curve) {
	t.Helper()
	if a.MaxMemory() != b.MaxMemory() || a.Total() != b.Total() {
		t.Fatalf("%s: MaxMemory/Total %d/%d vs %d/%d", what, a.MaxMemory(), a.Total(), b.MaxMemory(), b.Total())
	}
	for m := 0; m <= a.MaxMemory(); m++ {
		if a.MissRatio(m) != b.MissRatio(m) {
			t.Fatalf("%s: MR(%d) = %v vs %v", what, m, a.MissRatio(m), b.MissRatio(m))
		}
	}
}

// TestComputeMatchesCompactingStream pins that Compute, which sizes its
// timestamps to the trace and never compacts, produces exactly what a
// streaming simulator that compacts many times produces, including
// when its pooled simulator last ran a longer or a shorter trace.
func TestComputeMatchesCompactingStream(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	z := rand.NewZipf(rng, 1.1, 1, 3000)
	trace := make([]uint64, 30000)
	for i := range trace {
		trace[i] = z.Uint64()
	}
	stream := NewStackSimulator()
	for _, p := range trace {
		stream.Access(p)
	}
	// The clock counts the accesses since the last compaction.
	if stream.clock == len(trace) {
		t.Fatal("streaming simulator never compacted; lengthen the trace")
	}
	presized := NewStackSimulator()
	presized.feedPresized([][]uint64{trace})
	if presized.clock != len(trace) {
		t.Fatal("presized simulator compacted")
	}
	if !slices.Equal(presized.Histogram(), stream.Histogram()) {
		t.Fatal("presized histogram differs from the streaming one")
	}
	if presized.ColdMisses() != stream.ColdMisses() || presized.Total() != stream.Total() {
		t.Fatalf("cold/total %d/%d, streaming %d/%d",
			presized.ColdMisses(), presized.Total(), stream.ColdMisses(), stream.Total())
	}
	want := stream.Curve()
	for _, prior := range [][]uint64{trace, append(slices.Clone(trace), trace...), trace[:100], nil} {
		Compute(prior)
		sameCurve(t, fmt.Sprintf("after a %d-access Compute", len(prior)), Compute(trace), want)
	}
}

// TestComputeAllocatesOnlyTheCurve pins scratch reuse: a warmed Compute
// allocates the Curve it returns and its miss-ratio slice, nothing else.
func TestComputeAllocatesOnlyTheCurve(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(29))
	z := rand.NewZipf(rng, 1.1, 1, 5000)
	trace := make([]uint64, 49152)
	for i := range trace {
		trace[i] = z.Uint64()
	}
	Compute(trace)
	if allocs := testing.AllocsPerRun(10, func() { Compute(trace) }); allocs > 2 {
		t.Errorf("warmed Compute allocates %.1f objects, want at most 2 (the Curve and its slice)", allocs)
	}
}
