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

// ColdMiss is the stack distance reported for a first-ever reference to a
// page (the paper's Hit[∞] bucket).
const ColdMiss = -1

// StackSimulator computes LRU stack distances for a stream of page
// references and accumulates the hit-count histogram Hit[1..n] plus the
// cold-miss bucket Hit[∞].
type StackSimulator struct {
	lastSeen map[uint64]int // page -> timestamp of previous access
	tree     []int          // Fenwick tree over timestamps; 1 = live slot
	clock    int            // next timestamp (1-based inside tree)
	live     int            // number of live slots (= distinct pages)
	hist     map[int]int64  // stack distance -> hit count
	cold     int64          // Hit[∞]
	total    int64          // all accesses
	maxDist  int
	// scratch is compact's reusable sort buffer; with a stable working
	// set, periodic compaction reaches a steady state that allocates
	// nothing.
	scratch []pagetime
}

// NewStackSimulator returns an empty simulator.
func NewStackSimulator() *StackSimulator {
	return &StackSimulator{
		lastSeen: make(map[uint64]int),
		tree:     make([]int, 1024),
		hist:     make(map[int]int64),
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

// compact rebuilds the tree when the timestamp space fills up, renumbering
// live slots densely while preserving order. Both the sort scratch and
// the tree are reused across compactions, so a simulator with a stable
// working set compacts without allocating.
func (s *StackSimulator) compact() {
	pts := s.scratch[:0]
	for p, t := range s.lastSeen {
		pts = append(pts, pagetime{p, t})
	}
	// Timestamps are unique, so sorting by timestamp recovers LRU order.
	sortByTime(pts)
	s.scratch = pts
	need := 2 * (len(pts) + 1)
	if need < 1024 {
		need = 1024
	}
	if cap(s.tree) >= need {
		s.tree = s.tree[:need]
		clear(s.tree)
	} else {
		s.tree = make([]int, need)
	}
	for i := range pts {
		s.lastSeen[pts[i].page] = i + 1
		s.add(i+1, 1)
	}
	s.clock = len(pts)
}

type pagetime struct {
	page uint64
	t    int
}

func sortByTime(pts []pagetime) {
	// Simple in-place quicksort on t; avoids importing sort with an
	// interface allocation in this hot maintenance path.
	if len(pts) < 2 {
		return
	}
	pivot := pts[len(pts)/2].t
	left, right := 0, len(pts)-1
	for left <= right {
		for pts[left].t < pivot {
			left++
		}
		for pts[right].t > pivot {
			right--
		}
		if left <= right {
			pts[left], pts[right] = pts[right], pts[left]
			left++
			right--
		}
	}
	sortByTime(pts[:right+1])
	sortByTime(pts[left:])
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
	prev, seen := s.lastSeen[page]
	dist := ColdMiss
	if seen {
		// Count live slots with timestamp > prev, plus this page itself.
		dist = s.live - s.sum(prev) + 1
		s.add(prev, -1)
		s.live--
		s.hist[dist]++
		if dist > s.maxDist {
			s.maxDist = dist
		}
	} else {
		s.cold++
	}
	s.lastSeen[page] = t
	s.add(t, 1)
	s.live++
	return dist
}

// Total reports the number of accesses processed.
func (s *StackSimulator) Total() int64 { return s.total }

// ColdMisses reports the Hit[∞] bucket.
func (s *StackSimulator) ColdMisses() int64 { return s.cold }

// Distinct reports the number of distinct pages referenced.
func (s *StackSimulator) Distinct() int { return s.live }

// Histogram returns a copy of Hit[1..maxDist] as a dense slice where
// index i holds Hit[i+1].
func (s *StackSimulator) Histogram() []int64 {
	out := make([]int64, s.maxDist)
	for d, n := range s.hist {
		out[d-1] = n
	}
	return out
}

// Curve converts the accumulated histogram into a miss-ratio curve.
// See Curve for the representation.
func (s *StackSimulator) Curve() *Curve {
	return newCurve(s.Histogram(), s.total)
}

// Reset clears all state in place, keeping the maps' and the tree's
// allocated capacity so a simulator reset every interval reaches a
// steady state with no per-interval allocations.
func (s *StackSimulator) Reset() {
	clear(s.lastSeen)
	for i := range s.tree {
		s.tree[i] = 0
	}
	s.clock, s.live, s.cold, s.total, s.maxDist = 0, 0, 0, 0, 0
	clear(s.hist)
}
