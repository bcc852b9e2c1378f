package metrics

// AccessWindow keeps the most recent page accesses issued on behalf of one
// query class (§3.3: "a window of the most recent page accesses issued by
// the DBMS on behalf of the queries belonging to each specific query
// class"). MRC recomputation upon an SLA violation replays this window.
type AccessWindow struct {
	buf  []uint64
	head int
	size int
}

// NewAccessWindow returns a window holding up to capacity page numbers
// (minimum 1).
func NewAccessWindow(capacity int) *AccessWindow {
	if capacity < 1 {
		capacity = 1
	}
	return &AccessWindow{buf: make([]uint64, capacity)}
}

// Add appends a page access, evicting the oldest when full.
func (w *AccessWindow) Add(page uint64) {
	w.buf[w.head] = page
	w.head = (w.head + 1) % len(w.buf)
	if w.size < len(w.buf) {
		w.size++
	}
}

// Len reports the number of accesses currently retained.
func (w *AccessWindow) Len() int { return w.size }

// Snapshot returns the retained accesses in arrival order (oldest first).
func (w *AccessWindow) Snapshot() []uint64 {
	return w.AppendTail(make([]uint64, 0, w.size), w.size)
}

// AppendTail appends the n most recent retained accesses (all of them
// when fewer are retained) to dst in arrival order and returns the
// extended slice.
func (w *AccessWindow) AppendTail(dst []uint64, n int) []uint64 {
	older, newer := w.Tail(n)
	return append(append(dst, older...), newer...)
}

// Tail returns the n most recent retained accesses (all of them when
// fewer are retained) without copying them: in arrival order they are
// older followed by newer, two slices of the window's ring, the first
// empty unless the tail wraps around the ring's end. They alias the ring,
// so they stay valid only until the next Add.
func (w *AccessWindow) Tail(n int) (older, newer []uint64) {
	n = max(0, min(n, w.size))
	// The newest access sits just before head; while the ring has not
	// wrapped, head == size.
	start := w.head - n
	if start < 0 {
		return w.buf[start+len(w.buf):], w.buf[:w.head]
	}
	return nil, w.buf[start:w.head]
}

// Reset discards all retained accesses but keeps the capacity.
func (w *AccessWindow) Reset() {
	w.head, w.size = 0, 0
}
