// Package mrc implements Miss Ratio Curve tracking (paper §2).
//
// The miss-ratio curve of a query class shows the page miss ratio the
// class would experience at every possible buffer-pool size. It is
// computed online with Mattson's stack algorithm, which exploits the LRU
// inclusion property: a memory of k+1 pages always contains the contents
// of a memory of k pages, so a single pass over the access stream yields
// the hit count for every memory size simultaneously.
//
// For each access the algorithm needs the page's stack distance: the
// number of distinct pages referenced since its previous reference
// (inclusive). A naive LRU-stack scan costs O(distance) per access. The
// StackSimulator instead counts the accesses since the previous reference
// that a later access to the same page has superseded, in a bitmap with
// a Fenwick tree over its 64-bit words: one hash probe and two walks of
// O(log(n/64)) steps per access, for n timestamps. That keeps MRC
// tracking lightweight enough to run inside the engine, as the paper
// requires.
//
// Concurrency: a StackSimulator is single-owner — one goroutine
// accesses, resets and reads it. Compute is safe for concurrent use:
// each call borrows a simulator of its own from a pool.
package mrc

import "math/bits"

// ColdMiss is the stack distance reported for a first-ever reference to a
// page (the paper's Hit[∞] bucket).
const ColdMiss = -1

// StackSimulator computes LRU stack distances for a stream of page
// references and accumulates the hit-count histogram Hit[1..n] plus the
// cold-miss bucket Hit[∞].
//
// Every access takes the next timestamp 1, 2, …, clock. A timestamp is
// live while it is its page's latest access and dead once the page is
// referenced again, so exactly Distinct timestamps are live. For a page
// whose previous access was at prev, the pages referenced since are the
// live timestamps after prev, so with
//
//	live(≤prev) = prev − dead(≤prev)
//
// its stack distance is Distinct − live(≤prev) + 1. dead(≤prev) comes
// from a bitmap with one bit per dead timestamp and a Fenwick tree over
// the popcounts of the bitmap's 64-bit words: a prefix walk over the
// words before prev's, plus a popcount inside its word. The reuse then
// sets prev's bit and walks the word tree once to add it.
//
// Pages map to their latest timestamps in an open-addressing table:
// multiplicative hash, linear probing, doubled to stay at most half full.
// The table never deletes. When the timestamps run out, compact
// renumbers the live ones 1..Distinct in order and clears the bitmap.
type StackSimulator struct {
	slots    []slot // page table, a power-of-two size
	shift    uint8  // 64 − log2 len(slots)
	distinct int    // occupied slots
	dead     []uint64
	tree     []int // Fenwick tree over the popcounts of dead; word w at w+1
	limit    int   // timestamps run 1..limit-1 between compactions
	clock    int   // latest timestamp
	hist     []int64
	cold     int64 // Hit[∞]
	total    int64 // all accesses
}

// slot is one page-table entry: a page and its latest timestamp, which
// is 0 in an empty slot.
type slot struct {
	page uint64
	t    int
}

const (
	minSlots = 8
	minLimit = 1024
)

// NewStackSimulator returns an empty simulator.
func NewStackSimulator() *StackSimulator {
	s := &StackSimulator{}
	s.resize(minSlots)
	s.setLimit(minLimit)
	return s
}

// lookup returns the slot of page, or the empty slot where it belongs.
func (s *StackSimulator) lookup(page uint64) *slot {
	mask := len(s.slots) - 1
	for i := int(page * 0x9e3779b97f4a7c15 >> s.shift); ; i = (i + 1) & mask {
		if e := &s.slots[i]; e.t == 0 || e.page == page {
			return e
		}
	}
}

// resize rebuilds the page table with n slots, a power of two.
func (s *StackSimulator) resize(n int) {
	old := s.slots
	s.slots = make([]slot, n)
	s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, e := range old {
		if e.t != 0 {
			*s.lookup(e.page) = e
		}
	}
}

// setLimit makes timestamps 1..n-1 available with none dead, reusing
// the bitmap's and the tree's backing arrays when they are large enough.
func (s *StackSimulator) setLimit(n int) {
	words := (n + 63) / 64
	s.dead = zeroed(s.dead, words)
	s.tree = zeroed(s.tree, words+1)
	s.limit = n
}

// zeroed returns a zeroed slice of n elements, reusing buf's backing
// array when it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// deadUpTo counts the dead timestamps up to and including t.
func (s *StackSimulator) deadUpTo(t int) int {
	w := t >> 6
	n := bits.OnesCount64(s.dead[w] & (2<<(t&63) - 1))
	for i := w; i > 0; i -= i & -i {
		n += s.tree[i]
	}
	return n
}

// kill marks timestamp t dead.
func (s *StackSimulator) kill(t int) {
	w := t >> 6
	s.dead[w] |= 1 << (t & 63)
	for i := w + 1; i < len(s.tree); i += i & -i {
		s.tree[i]++
	}
}

// compact renumbers the live timestamps 1..Distinct in order, a live
// timestamp t becoming t − dead(≤t), and makes 2·(Distinct+1) timestamps,
// at least minLimit, available. A simulator with a stable working set compacts without
// allocating.
func (s *StackSimulator) compact() {
	for i := range s.slots {
		if t := s.slots[i].t; t != 0 {
			s.slots[i].t = t - s.deadUpTo(t)
		}
	}
	s.setLimit(max(2*(s.distinct+1), minLimit))
	s.clock = s.distinct
}

// Access records a reference to page and returns its stack distance: 1 if
// the page was the most recently used, k if k distinct pages (including
// this one) were touched since its last use, or ColdMiss on first
// reference.
func (s *StackSimulator) Access(page uint64) int {
	s.total++
	if s.clock+1 >= s.limit {
		s.compact()
	}
	s.clock++
	e := s.lookup(page)
	if e.t == 0 {
		*e = slot{page, s.clock}
		s.distinct++
		if 2*s.distinct > len(s.slots) {
			s.resize(2 * len(s.slots))
		}
		s.cold++
		return ColdMiss
	}
	prev := e.t
	e.t = s.clock
	dist := s.distinct - (prev - s.deadUpTo(prev)) + 1
	s.kill(prev)
	for dist > len(s.hist) {
		s.hist = append(s.hist, 0)
	}
	s.hist[dist-1]++
	return dist
}

// Total reports the number of accesses processed.
func (s *StackSimulator) Total() int64 { return s.total }

// ColdMisses reports the Hit[∞] bucket.
func (s *StackSimulator) ColdMisses() int64 { return s.cold }

// Distinct reports the number of distinct pages referenced.
func (s *StackSimulator) Distinct() int { return s.distinct }

// Histogram returns a copy of Hit[1..maxDist] as a dense slice where
// index i holds Hit[i+1].
func (s *StackSimulator) Histogram() []int64 {
	out := make([]int64, len(s.hist))
	copy(out, s.hist)
	return out
}

// Curve converts the accumulated histogram into a miss-ratio curve.
// See Curve for the representation.
func (s *StackSimulator) Curve() *Curve {
	return newCurve(s.hist, s.total)
}

// Reset clears all state in place, keeping the page table's, the
// bitmap's and the tree's allocated capacity so a simulator reset every
// interval reaches a steady state with no per-interval allocations.
func (s *StackSimulator) Reset() { s.reset(s.limit) }

// feedPresized resets s with timestamps for the whole trace, so that
// compact never runs, and feeds it the segments in order.
func (s *StackSimulator) feedPresized(segments [][]uint64) {
	n := 0
	for _, seg := range segments {
		n += len(seg)
	}
	s.reset(n + 2)
	for _, seg := range segments {
		for _, p := range seg {
			s.Access(p)
		}
	}
}

// reset is Reset with timestamps 1..n-1.
func (s *StackSimulator) reset(n int) {
	clear(s.slots)
	s.distinct = 0
	s.setLimit(n)
	s.clock, s.cold, s.total = 0, 0, 0
	s.hist = s.hist[:0]
}
