package admission

import "sync"

// Queue is one replica's bounded in-flight tracker. A slot is held from
// TryAcquire until its query's completion time passes (Commit) or the
// attempt is abandoned (Cancel). In virtual time nothing "finishes" by
// itself, so completed entries are pruned lazily: a committed slot with
// completion time done frees itself the first time any call observes a
// now >= done.
//
// The two-phase protocol (acquire, then commit with the completion time)
// exists because the scheduler only learns a query's completion time by
// executing it — by which point the slot must already be held, or a
// burst could overcommit the replica.
//
// Safe for concurrent use. The capacity invariant — never more than cap
// slots outstanding, each acquired slot released exactly once — is what
// the race tests drive with real concurrent submitters.
type Queue struct {
	mu       sync.Mutex
	cap      int
	reserved int      // acquired, not yet committed or cancelled
	done     doneHeap // committed completion times, min-first
}

// NewQueue returns a queue admitting at most cap in-flight queries
// (minimum 1).
func NewQueue(cap int) *Queue {
	if cap < 1 {
		cap = 1
	}
	return &Queue{cap: cap}
}

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return q.cap }

// prune drops committed entries whose completion time has passed.
// Caller holds the lock.
func (q *Queue) prune(now float64) {
	for len(q.done) > 0 && q.done[0] <= now {
		q.done.pop()
	}
}

// TryAcquire reserves one in-flight slot for a query arriving at now.
// It reports false when the queue is at capacity.
func (q *Queue) TryAcquire(now float64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)
	if q.reserved+len(q.done) >= q.cap {
		return false
	}
	q.reserved++
	return true
}

// Commit converts a reserved slot into a committed one that frees
// itself once virtual time passes done.
func (q *Queue) Commit(done float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reserved > 0 {
		q.reserved--
	}
	q.done.push(done)
}

// Cancel releases a reserved slot without executing (the attempt was
// abandoned, e.g. the engine refused the query).
func (q *Queue) Cancel() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reserved > 0 {
		q.reserved--
	}
}

// Depth reports the in-flight count as of now.
func (q *Queue) Depth(now float64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)
	return q.reserved + len(q.done)
}

// doneHeap is a binary min-heap of completion times. It is typed rather
// than built on container/heap, whose interface boxes every float pushed
// or popped.
type doneHeap []float64

func (h *doneHeap) push(x float64) {
	s := append(*h, x)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= x {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	*h = s
}

// pop removes the minimum. The heap must be non-empty.
func (h *doneHeap) pop() {
	s := *h
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r] < s[c] {
			c = r
		}
		if x <= s[c] {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = x
	}
	*h = s
}
