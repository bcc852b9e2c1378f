package mrc

import "sync"

// Curve is a miss-ratio curve: MissRatio(m) predicts the page miss ratio
// a query class would experience with a buffer-pool allocation of m pages.
//
// Following the paper's equation (1),
//
//	MR(m) = (Σ_{i=m+1..n} Hit[i] + Hit[∞]) / (Σ_{i=1..n} Hit[i] + Hit[∞])
//
// i.e. references at stack distance ≤ m hit; everything else (deeper
// reuse and cold references) misses.
type Curve struct {
	miss  []float64 // miss[i] = MR(i) for i in 0..n (miss[0] = 1 unless total==0)
	total int64
}

func newCurve(hist []int64, total int64) *Curve {
	c := &Curve{total: total}
	c.miss = make([]float64, len(hist)+1)
	if total == 0 {
		for i := range c.miss {
			c.miss[i] = 0
		}
		return c
	}
	hits := int64(0)
	c.miss[0] = 1
	for i, h := range hist {
		hits += h
		c.miss[i+1] = float64(total-hits) / float64(total)
	}
	return c
}

// NewCurveFromHistogram builds a curve directly from a stack-distance
// histogram (index i = Hit[i+1]) and a cold-miss count. Exposed for tests
// and for tools that persist histograms.
func NewCurveFromHistogram(hist []int64, cold int64) *Curve {
	total := cold
	for _, h := range hist {
		total += h
	}
	return newCurve(hist, total)
}

// computeSims holds the simulators Compute reuses, so that a recompute
// in steady state allocates only the Curve it returns.
var computeSims = sync.Pool{New: func() any { return NewStackSimulator() }}

// Compute runs Mattson's algorithm over an access trace, the
// concatenation of the segments, and returns its miss-ratio curve. It is
// the one-shot form used when the retuning controller recomputes the MRC
// of a problem query class from its recent access window, which it
// passes as the two slices of the window's ring; Compute does not retain
// them. The simulator's timestamps are sized to the whole trace, so it
// never compacts; stack distances, and so the curve, are those of a
// streaming StackSimulator fed the same trace.
func Compute(segments ...[]uint64) *Curve {
	s := computeSims.Get().(*StackSimulator)
	s.feedPresized(segments)
	c := s.Curve()
	computeSims.Put(s)
	return c
}

// MaxMemory reports the largest memory size for which the curve has exact
// information; beyond it the curve is flat (only cold misses remain).
func (c *Curve) MaxMemory() int { return len(c.miss) - 1 }

// Total reports the number of accesses behind the curve.
func (c *Curve) Total() int64 { return c.total }

// MissRatio predicts the miss ratio at a buffer allocation of m pages.
// Negative m is treated as zero; m beyond the observed maximum returns the
// asymptotic (cold-miss-only) ratio.
func (c *Curve) MissRatio(m int) float64 {
	if len(c.miss) == 0 {
		return 0
	}
	if m < 0 {
		m = 0
	}
	if m >= len(c.miss) {
		m = len(c.miss) - 1
	}
	return c.miss[m]
}

// Params are the two MRC parameters the paper attaches to every query
// class context (§3.3).
type Params struct {
	// TotalMemory is the smallest of (a) the server's physical memory and
	// (b) the memory size at which the miss ratio reaches its floor.
	TotalMemory int
	// IdealMissRatio is the miss ratio at TotalMemory.
	IdealMissRatio float64
	// AcceptableMemory is the smallest memory whose predicted miss ratio
	// is within the configured threshold of the ideal miss ratio.
	AcceptableMemory int
	// AcceptableMissRatio is the miss ratio at AcceptableMemory.
	AcceptableMissRatio float64
}

// DefaultThreshold is the fixed threshold separating the acceptable miss
// ratio from the ideal one: acceptable = ideal + DefaultThreshold.
const DefaultThreshold = 0.02

// ParamsFor derives the curve parameters given the hosting server's
// physical memory (in pages) and the acceptable-miss-ratio threshold.
// A non-positive or NaN threshold falls back to DefaultThreshold.
func (c *Curve) ParamsFor(serverMemory int, threshold float64) Params {
	if !(threshold > 0) {
		threshold = DefaultThreshold
	}
	limit := c.MaxMemory()
	if serverMemory > 0 && serverMemory < limit {
		limit = serverMemory
	}
	floor := c.MissRatio(limit)
	// Total memory needed: smallest m whose miss ratio has reached the
	// floor (within a hair of float noise).
	const eps = 1e-12
	total := limit
	for m := 0; m <= limit; m++ {
		if c.MissRatio(m) <= floor+eps {
			total = m
			break
		}
	}
	p := Params{TotalMemory: total, IdealMissRatio: c.MissRatio(total)}
	accept := total
	for m := 0; m <= total; m++ {
		if c.MissRatio(m) <= p.IdealMissRatio+threshold {
			accept = m
			break
		}
	}
	p.AcceptableMemory = accept
	p.AcceptableMissRatio = c.MissRatio(accept)
	return p
}

// SignificantGrowth reports whether newer parameters indicate a
// significantly higher memory need than older ones — the §3.3.2 test that
// flags a query class as likely associated with memory interference. The
// factor is the minimum relative growth considered significant.
func SignificantGrowth(old, new Params, factor float64) bool {
	if factor <= 0 {
		factor = 1.25
	}
	grew := func(a, b int) bool {
		if a <= 0 {
			return b > 0
		}
		return float64(b) >= factor*float64(a)
	}
	return grew(old.TotalMemory, new.TotalMemory) || grew(old.AcceptableMemory, new.AcceptableMemory)
}

// SignificantChange reports whether the memory-need parameters moved by
// at least the given factor in either direction. Section 5.3 flags the
// unindexed BestSeller because its total and acceptable memory *changed*
// (the acceptable need actually shrank while the curve flattened), so the
// diagnosis tests for change, not only growth.
func SignificantChange(old, new Params, factor float64) bool {
	if factor <= 0 {
		factor = 1.25
	}
	moved := func(a, b int) bool {
		if a <= 0 || b <= 0 {
			return a != b
		}
		r := float64(b) / float64(a)
		return r >= factor || r <= 1/factor
	}
	return moved(old.TotalMemory, new.TotalMemory) || moved(old.AcceptableMemory, new.AcceptableMemory)
}

// Points samples the curve at the given number of evenly spaced memory
// sizes for plotting (Figures 5 and 6). It always includes m=0 and
// m=MaxMemory. Fewer than 2 points yields the full curve.
func (c *Curve) Points(n int) (mem []int, miss []float64) {
	max := c.MaxMemory()
	if n < 2 || n > max+1 {
		n = max + 1
	}
	if n < 2 {
		return []int{0}, []float64{c.MissRatio(0)}
	}
	mem = make([]int, n)
	miss = make([]float64, n)
	for i := 0; i < n; i++ {
		m := i * max / (n - 1)
		mem[i] = m
		miss[i] = c.MissRatio(m)
	}
	return mem, miss
}
