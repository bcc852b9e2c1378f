package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf draws values in [0, n) with a Zipfian distribution of exponent s:
// P(k) is proportional to (k+1)^-s, so smaller indexes are more popular.
//
// It returns exactly the values math/rand's Zipf (rand.NewZipf(r, s, 1,
// n−1)) returns from the same *rand.Rand, draw for draw, and consumes the
// same Float64 values, so swapping one for the other moves no output.
// math/rand's rejection-inversion loop computes, for each uniform draw r,
//
//	ur = hxm + r·hx0minusHxm          (hx0minusHxm < 0)
//	x  = hinv(ur) = exp(log((1−s)·ur)/(1−s)) − 1
//	k  = floor(x + 0.5)
//	accept k if k − x ≤ z.s, or if ur ≥ T_k = h(k+0.5) − exp(−log(k+1)·s);
//	otherwise draw again
//
// and spends most of its time in the Log and Exp of hinv. This sampler
// splits [0, 1) into 2^14 equal cells of r. A cell whose outcome is
// provably the same for every float64 r in it stores that outcome, either
// "accept k" or "reject, draw again", and a draw landing in it costs one
// table load. Every other cell runs math/rand's loop body expression for
// expression. The table is allocated on the first draw and each cell is
// filled on its first use, from (s, n, cell) alone: filling never touches
// the random source. The proof that a stored outcome is math/rand's, for
// a cell [r0, r1) with r0 = c/2^14 and r1 = (c+1)/2^14:
//
//  1. ur is monotone in r. r·hx0minusHxm is exactly decreasing in r and
//     IEEE rounding is monotone, so fl(hxm + fl(r·hx0minusHxm)) is
//     non-increasing in r; with a fused multiply-add the single rounding
//     of hxm + r·hx0minusHxm is as well. So every r in the cell gives an
//     ur in [u1, u0], u0 = ur(r0) and u1 = ur(r1), both computed with the
//     loop's own expression.
//  2. The computed hinv stays near the true one. With oneminusQ and
//     oneminusQinv taken as exact reals, H(u) = exp(oneminusQinv·
//     ln(oneminusQ·u)) − 1 is strictly increasing (both constants and u
//     are negative). If Log and Exp are accurate to 1 ulp (the portable
//     code's documented bound; the assembly versions are polynomial
//     evaluations of similar accuracy), the five roundings of hinv put
//     the computed x within (H(u)+1)·2^-52·(|1/(1−s)| + 2|ln(H(u)+1)| + 3)
//     of H(u), to first order: the rounding of (1−s)·ur reaches the
//     exponent amplified by |1/(1−s)|. x ≥ −0.5 and x < 2^64, so
//     |ln(x+1)| < 45, and the margin
//     m = 2^-42·(max(|x0|, |x1|) + 1)·(|1/(1−s)| + 128), where x0 and x1
//     are the computed hinv(u0) and hinv(u1), exceeds twice that error
//     bound over 500-fold. Every computed x in the cell then lies in
//     [lo, hi] = [x1 − m, x0 + m].
//  3. k is constant. x ↦ floor(fl(x + 0.5)) is monotone, so if lo and hi
//     give the same k, so does every x in the cell. A cell whose k is
//     negative or does not fit a table entry (k > 65532) stays slow. A
//     tabled cell has hi − lo < 1, so m < 1/2 and |1/(1−s)| < 2^41: the
//     exponent's error stays under 2^-10, the first-order terms dominate,
//     and the slack covers the rest.
//  4. The first test is decided. fl(k − x) is non-increasing in x, so
//     k − lo ≤ z.s accepts every x in the cell and k − hi > z.s rejects
//     every x.
//  5. The second test is exact. T_k is the same floating-point expression
//     math/rand evaluates, and ur lies in [u1, u0]: u1 ≥ T_k accepts every
//     r in the cell, and u0 < T_k rejects every r.
//
// A cell is "accept k" when step 4 accepts every x or step 5 accepts
// every r, "reject" when step 4 rejects every x and step 5 rejects every
// r, and slow otherwise. A Zipf belongs to the single owner of its RNG.
type Zipf struct {
	r *rand.Rand
	// math/rand's Zipf state for v = 1, computed by its expressions; s
	// is the acceptance threshold and q the exponent.
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64
	// cells holds each cell's outcome: zipfUnfilled until first use, then
	// zipfSlow, zipfReject, or zipfAccept+k. nil until the first draw.
	cells *[zipfCells]uint16
}

// zipfCells is the number of equal-width cells the uniform draw r ∈ [0, 1)
// is split into.
const zipfCells = 1 << 14

// Cell outcomes.
const (
	zipfUnfilled = iota
	zipfSlow
	zipfReject
	zipfAccept // zipfAccept + k accepts k
)

// zipfMaxCellK is the largest k a cell entry holds.
const zipfMaxCellK = math.MaxUint16 - zipfAccept

// NewZipf returns a Zipf generator over [0, n) with skew s. It panics
// unless s > 1 and n ≥ 1: callers pass constants or validated input.
func (g *RNG) NewZipf(s float64, n uint64) *Zipf {
	if !(s > 1) || n == 0 {
		panic(fmt.Sprintf("sim: NewZipf(s=%v, n=%d): need s > 1 and n ≥ 1", s, n))
	}
	imax := float64(n - 1)
	z := &Zipf{r: g.r, v: 1, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Next draws the next Zipf value.
func (z *Zipf) Next() uint64 {
	if z.cells == nil {
		z.cells = new([zipfCells]uint16)
	}
	for {
		r := z.r.Float64()
		// r < 1, so the mask changes nothing; it lets the compiler drop
		// the bounds check.
		c := int(r*zipfCells) & (zipfCells - 1)
		e := z.cells[c]
		if e == zipfUnfilled {
			e = z.fill(c)
			z.cells[c] = e
		}
		if e >= zipfAccept {
			return uint64(e - zipfAccept)
		}
		if e == zipfReject {
			continue
		}
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// fill decides cell c by the steps of the type's proof.
func (z *Zipf) fill(c int) uint16 {
	r0 := float64(c) / zipfCells
	r1 := float64(c+1) / zipfCells
	u0 := z.hxm + r0*z.hx0minusHxm
	u1 := z.hxm + r1*z.hx0minusHxm
	x0, x1 := z.hinv(u0), z.hinv(u1)
	m := 0x1p-42 * (math.Max(math.Abs(x0), math.Abs(x1)) + 1) * (math.Abs(z.oneminusQinv) + 128)
	lo, hi := x1-m, x0+m
	k := math.Floor(lo + 0.5)
	if math.Floor(hi+0.5) != k || !(k >= 0 && k <= zipfMaxCellK) {
		return zipfSlow
	}
	accept := zipfAccept + uint16(k)
	if k-lo <= z.s {
		return accept
	}
	tk := z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
	if u1 >= tk {
		return accept
	}
	if !(k-hi <= z.s) && !(u0 >= tk) {
		return zipfReject
	}
	return zipfSlow
}
