package trace

import (
	"fmt"
	"math"

	"outlierlb/internal/sim"
)

// Generator produces the page sequence of one synthetic query class.
type Generator interface {
	// Next returns the next page reference.
	Next() uint64
}

// SequentialScan cycles through a page range [Base, Base+Span), modelling
// a repeated full scan (the unindexed-BestSeller pattern of §5.3 and the
// RUBiS SearchItemsByRegion pattern of §5.4).
type SequentialScan struct {
	Base uint64
	Span uint64
	pos  uint64
}

// Next implements Generator.
func (s *SequentialScan) Next() uint64 {
	if s.Span == 0 {
		return s.Base
	}
	p := s.Base + s.pos
	s.pos = (s.pos + 1) % s.Span
	return p
}

// ZipfSet draws pages from [Base, Base+Span) with Zipf popularity —
// the typical pattern of indexed OLTP lookups whose hot set is much
// smaller than the table.
type ZipfSet struct {
	Base uint64
	zipf *sim.Zipf
}

// NewZipfSet returns a Zipf generator over span pages with the given skew
// (>1; larger is more skewed).
func NewZipfSet(rng *sim.RNG, base, span uint64, skew float64) *ZipfSet {
	if span < 2 {
		span = 2
	}
	return &ZipfSet{Base: base, zipf: rng.NewZipf(skew, span)}
}

// Next implements Generator.
func (z *ZipfSet) Next() uint64 { return z.Base + z.zipf.Next() }

// UniformSet draws pages uniformly from [Base, Base+Span).
type UniformSet struct {
	Base uint64
	Span uint64
	rng  *sim.RNG
}

// NewUniformSet returns a uniform generator over span pages. A span
// above math.MaxInt panics: Next draws through RNG.Intn, which takes an
// int.
func NewUniformSet(rng *sim.RNG, base, span uint64) *UniformSet {
	if span > math.MaxInt {
		panic(fmt.Sprintf("trace: uniform span %d exceeds math.MaxInt (%d)", span, math.MaxInt))
	}
	if span < 1 {
		span = 1
	}
	return &UniformSet{Base: base, Span: span, rng: rng}
}

// Next implements Generator.
func (u *UniformSet) Next() uint64 {
	return u.Base + uint64(u.rng.Intn(int(u.Span)))
}

// Mixture draws each page from one of several generators chosen with
// probability proportional to its weight. Stickiness > 1 makes the choice
// persistent: the mixture keeps drawing from the same generator for an
// expected Stickiness consecutive pages, which preserves the sequential
// runs of scan-type components (and therefore their read-ahead behaviour)
// inside a mixed reference stream.
type Mixture struct {
	rng        *sim.RNG
	gens       []Generator
	weights    []float64
	total      float64
	stickiness int
	cur        int
	runLeft    int
}

// NewMixture returns a mixture over gens with the given weights.
// Stickiness < 1 is treated as 1 (a fresh choice per page).
func NewMixture(rng *sim.RNG, gens []Generator, weights []float64, stickiness int) (*Mixture, error) {
	if len(gens) == 0 || len(gens) != len(weights) {
		return nil, fmt.Errorf("trace: mixture needs matching generators and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("trace: negative mixture weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("trace: mixture weights sum to zero")
	}
	if stickiness < 1 {
		stickiness = 1
	}
	return &Mixture{rng: rng, gens: gens, weights: weights, total: total, stickiness: stickiness}, nil
}

// Next implements Generator.
func (m *Mixture) Next() uint64 {
	if m.runLeft <= 0 {
		r := m.rng.Float64() * m.total
		m.cur = len(m.gens) - 1
		for i, w := range m.weights {
			r -= w
			if r < 0 {
				m.cur = i
				break
			}
		}
		m.runLeft = m.stickiness
	}
	m.runLeft--
	return m.gens[m.cur].Next()
}

// Generate draws n pages from g.
func Generate(g Generator, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Interleave builds a mixed trace from per-class generators, drawing each
// access from a class chosen with probability proportional to its weight.
// It models the concurrent query mix hitting one buffer pool. A negative
// n panics.
func Interleave(rng *sim.RNG, n int, classes []string, gens []Generator, weights []float64) Trace {
	if n < 0 {
		panic(fmt.Sprintf("trace: Interleave needs n ≥ 0 accesses, got %d", n))
	}
	if len(classes) != len(gens) || len(classes) != len(weights) || len(classes) == 0 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	out := make(Trace, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * total
		k := 0
		for ; k < len(weights)-1; k++ {
			if weights[k] > 0 {
				r -= weights[k]
				if r < 0 {
					break
				}
			}
		}
		out = append(out, Access{Class: classes[k], Page: gens[k].Next()})
	}
	return out
}
