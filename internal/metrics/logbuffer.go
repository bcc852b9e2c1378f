package metrics

// This file models the paper's low-overhead logging design (§4): "To avoid
// locking overhead, we create a private logging buffer per thread. We log
// the specified counts, statistics and unique page accesses per query
// class. Finally, we flush the logs to disk only when the buffer is full
// or if the thread is being shutdown."

// RecordKind distinguishes the events written to a log buffer.
type RecordKind uint8

// The event kinds a database thread logs. Page accesses are logged as
// per-query counts, not one record per page: the collector only counts
// them, and the page numbers themselves reach MRC recomputation through
// the class's AccessWindow. Count values are integers, so folding them
// is exact.
const (
	RecQuery     RecordKind = iota // a completed query; Value = latency seconds
	RecAccess                      // one query's logical page accesses; Value = count
	RecMiss                        // one query's buffer-pool misses; Value = count
	RecIO                          // an I/O block request batch; Value = count
	RecReadAhead                   // a prefetch batch; Value = count
	RecLockWait                    // a lock acquisition; Value = wait seconds
)

// Record is one logged event of the query class whose Slot it carries;
// the slot comes from Collector.SlotFor of the collector the record is
// folded into.
type Record struct {
	Kind  RecordKind
	Slot  Slot
	Value float64
}

// LogBuffer is a fixed-capacity private logging buffer. Appends never
// block and never allocate once the buffer is constructed; when the buffer
// fills, the flush callback receives the batch and the buffer resets.
//
// A LogBuffer is single-owner by design — it is the paper's per-thread
// private buffer, so exactly one goroutine may Append/Flush, and the
// flush callback runs synchronously on that goroutine. Concurrent
// producers each get their own buffer draining into a shared Collector,
// never a shared buffer.
type LogBuffer struct {
	buf     []Record
	flushFn func([]Record)
	flushes int
}

// NewLogBuffer returns a buffer of the given capacity (minimum 1) that
// calls flush with each full batch. The slice passed to flush is only
// valid for the duration of the call.
func NewLogBuffer(capacity int, flush func([]Record)) *LogBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &LogBuffer{buf: make([]Record, 0, capacity), flushFn: flush}
}

// Append logs one record, flushing first if the buffer is full.
func (b *LogBuffer) Append(r Record) {
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
	b.buf = append(b.buf, r)
}

// Flush delivers any buffered records to the flush callback and resets the
// buffer. Flushing an empty buffer is a no-op.
func (b *LogBuffer) Flush() {
	if len(b.buf) == 0 {
		return
	}
	if b.flushFn != nil {
		b.flushFn(b.buf)
	}
	b.buf = b.buf[:0]
	b.flushes++
}

// Len reports the number of records currently buffered.
func (b *LogBuffer) Len() int { return len(b.buf) }

// Flushes reports how many non-empty flushes have occurred, which tests
// use to verify the batching behaviour.
func (b *LogBuffer) Flushes() int { return b.flushes }
