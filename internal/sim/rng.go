package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with the distributions the
// simulator needs. It wraps math/rand with a fixed seed discipline so a
// simulation seed fully determines every random draw.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a source seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(int64(seed)))}
}

// Fork derives an independent stream from this one. Forked streams let
// subsystems draw random numbers without perturbing each other's sequences
// when the composition of subsystems changes.
func (g *RNG) Fork() *RNG {
	return NewRNG(uint64(g.r.Int63()))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a bounded Pareto-ish heavy-tailed value with the given
// minimum and shape alpha (> 0). Used for occasional heavyweight service
// demands.
func (g *RNG) Pareto(min, alpha float64) float64 {
	u := g.r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return min / math.Pow(u, 1/alpha)
}
