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
// (inclusive). A naive LRU-stack scan costs O(distance) per access; this
// implementation uses the standard Fenwick-tree formulation, costing
// O(log n) per access, so MRC tracking stays lightweight enough to run
// inside the engine as the paper requires.
//
// Concurrency: StackSimulator and SampledSimulator are single-owner —
// one goroutine accesses, resets and reads a simulator.
package mrc

import (
	"cmp"
	"slices"
)

// ColdMiss is the stack distance reported for a first-ever reference to a
// page (the paper's Hit[∞] bucket).
const ColdMiss = -1

// StackSimulator computes LRU stack distances for a stream of page
// references and accumulates the hit-count histogram Hit[1..n] plus the
// cold-miss bucket Hit[∞].
type StackSimulator struct {
	index map[uint64]int // page -> dense page number, the index into last
	last  []int          // dense page number -> timestamp of previous access
	tree  []int          // Fenwick tree over timestamps; 1 = live slot
	clock int            // next timestamp (1-based inside tree)
	hist  []int64        // hist[d-1] = hit count at stack distance d
	cold  int64          // Hit[∞]
	total int64          // all accesses
	// scratch is compact's reusable sort buffer; with a stable working
	// set, periodic compaction reaches a steady state that allocates
	// nothing.
	scratch []pagetime
}

// NewStackSimulator returns an empty simulator.
func NewStackSimulator() *StackSimulator {
	return &StackSimulator{
		index: make(map[uint64]int),
		tree:  make([]int, 1024),
	}
}

func (s *StackSimulator) add(i, delta int) {
	for ; i < len(s.tree); i += i & (-i) {
		s.tree[i] += delta
	}
}

func (s *StackSimulator) sum(i int) int {
	total := 0
	for ; i > 0; i -= i & (-i) {
		total += s.tree[i]
	}
	return total
}

// zeroed returns a zeroed slice of n ints, reusing buf's backing array
// when it is large enough.
func zeroed(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// compact rebuilds the tree when the timestamp space fills up, renumbering
// live slots densely while preserving order. Both the sort scratch and
// the tree are reused across compactions, so a simulator with a stable
// working set compacts without allocating.
func (s *StackSimulator) compact() {
	pts := s.scratch[:0]
	for i, t := range s.last {
		pts = append(pts, pagetime{i, t})
	}
	// Timestamps are unique, so sorting by timestamp recovers LRU order.
	slices.SortFunc(pts, func(a, b pagetime) int { return cmp.Compare(a.t, b.t) })
	s.scratch = pts
	s.tree = zeroed(s.tree, max(2*(len(pts)+1), 1024))
	for i := range pts {
		s.last[pts[i].page] = i + 1
		s.add(i+1, 1)
	}
	s.clock = len(pts)
}

type pagetime struct {
	page int // dense page number
	t    int
}

// Access records a reference to page and returns its stack distance: 1 if
// the page was the most recently used, k if k distinct pages (including
// this one) were touched since its last use, or ColdMiss on first
// reference.
func (s *StackSimulator) Access(page uint64) int {
	s.total++
	if s.clock+1 >= len(s.tree) {
		s.compact()
	}
	s.clock++
	t := s.clock
	i, seen := s.index[page]
	if !seen {
		s.index[page] = len(s.last)
		s.last = append(s.last, t)
		s.add(t, 1)
		s.cold++
		return ColdMiss
	}
	// Count live slots with timestamp > the previous one, plus this page
	// itself. One slot per distinct page is live.
	prev := s.last[i]
	dist := len(s.last) - s.sum(prev) + 1
	s.add(prev, -1)
	s.add(t, 1)
	s.last[i] = t
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
func (s *StackSimulator) Distinct() int { return len(s.last) }

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

// Reset clears all state in place, keeping the map's, the slices' and
// the tree's allocated capacity so a simulator reset every interval
// reaches a steady state with no per-interval allocations.
func (s *StackSimulator) Reset() { s.reset(len(s.tree)) }

// feedPresized resets s with a tree sized to the whole trace, so that
// compact never runs, and feeds it the trace.
func (s *StackSimulator) feedPresized(trace []uint64) {
	s.reset(len(trace) + 2)
	for _, p := range trace {
		s.Access(p)
	}
}

// reset is Reset with a tree of n slots.
func (s *StackSimulator) reset(n int) {
	clear(s.index)
	s.last = s.last[:0]
	s.tree = zeroed(s.tree, n)
	s.clock, s.cold, s.total = 0, 0, 0
	s.hist = s.hist[:0]
}
