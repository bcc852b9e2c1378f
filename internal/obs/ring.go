package obs

import "sync"

// EventLog is a bounded ring buffer of decision-trace events. Appends
// assign sequence numbers and evict the oldest event once the buffer is
// full, so a long run keeps the recent decision history at bounded
// memory. The buffer starts small and doubles as events arrive until it
// reaches the capacity, so a run that records a few hundred events does
// not allocate and zero room for thousands. Safe for concurrent use: the
// simulation appends while HTTP handlers read.
type EventLog struct {
	mu       sync.Mutex
	buf      []Event
	capacity int    // the most events held; len(buf) grows up to it
	start    int    // index of the oldest event; 0 until the log is full
	n        int    // events currently held
	total    uint64 // events ever appended; the next Seq
}

// eventLogInitial is the buffer length of a new log whose capacity is
// larger.
const eventLogInitial = 64

// NewEventLog returns an empty log holding at most capacity events
// (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{buf: make([]Event, min(capacity, eventLogInitial)), capacity: capacity}
}

// Append stores e, assigning its sequence number, and returns the stored
// event. The oldest event is evicted when the log is full.
func (l *EventLog) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.total
	l.total++
	if l.n < l.capacity {
		// Nothing was evicted yet, so the events sit at buf[0:n].
		if l.n == len(l.buf) {
			grown := make([]Event, min(2*len(l.buf), l.capacity))
			copy(grown, l.buf)
			l.buf = grown
		}
		l.buf[l.n] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	return e
}

// Len reports how many events the log currently holds.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total reports how many events have ever been appended (evicted ones
// included).
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything held.
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, n)
	first := l.start + l.n - n
	for i := 0; i < n; i++ {
		out[i] = l.buf[(first+i)%len(l.buf)]
	}
	return out
}
