package mrc

import (
	"cmp"
	"slices"
)

// refSimulator is the textbook Fenwick-tree form of Mattson's algorithm
// that StackSimulator replaced, kept as the differential tests' oracle: a
// map from page to a dense page number, the page's last timestamp, and a
// Fenwick tree over timestamps holding 1 in each live slot (the latest
// access of some page). A reuse's stack distance is the number of live
// slots after its previous timestamp, plus one. When the timestamps run
// out, compact renumbers the live slots 1..Distinct in order.
type refSimulator struct {
	index map[uint64]int // page -> dense page number, the index into last
	last  []int          // dense page number -> timestamp of previous access
	tree  []int          // Fenwick tree over timestamps; 1 = live slot
	clock int            // next timestamp (1-based inside tree)
	hist  []int64        // hist[d-1] = hit count at stack distance d
	cold  int64
	total int64
	// compactions counts compact calls, so tests can check that a trace
	// exercised renumbering.
	compactions int
}

func newRefSimulator() *refSimulator {
	return &refSimulator{index: make(map[uint64]int), tree: make([]int, 1024)}
}

func (s *refSimulator) add(i, delta int) {
	for ; i < len(s.tree); i += i & (-i) {
		s.tree[i] += delta
	}
}

func (s *refSimulator) sum(i int) int {
	total := 0
	for ; i > 0; i -= i & (-i) {
		total += s.tree[i]
	}
	return total
}

type refPageTime struct{ page, t int }

func (s *refSimulator) compact() {
	s.compactions++
	pts := make([]refPageTime, 0, len(s.last))
	for i, t := range s.last {
		pts = append(pts, refPageTime{i, t})
	}
	// Timestamps are unique, so sorting by timestamp recovers LRU order.
	slices.SortFunc(pts, func(a, b refPageTime) int { return cmp.Compare(a.t, b.t) })
	s.tree = make([]int, max(2*(len(pts)+1), 1024))
	for i := range pts {
		s.last[pts[i].page] = i + 1
		s.add(i+1, 1)
	}
	s.clock = len(pts)
}

func (s *refSimulator) Access(page uint64) int {
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

func (s *refSimulator) Distinct() int { return len(s.last) }

func (s *refSimulator) Curve() *Curve { return newCurve(s.hist, s.total) }
