// Package metrics implements the statistics-collection layer of the paper
// (§3.3): lightweight per-query-class monitoring of latency, throughput,
// buffer-pool misses, page accesses, I/O block requests and read-ahead
// (prefetch) requests, plus a window of the most recent page accesses per
// query class.
//
// Collection is tied to query class contexts: every sample carries the
// query class it belongs to, and Snapshot produces one metric vector per
// class for each measurement interval.
//
// # Concurrency and ownership
//
// The package mirrors the paper's §4 design — "to avoid locking overhead,
// we create a private logging buffer per thread" — with two layers:
//
//   - LogBuffer is strictly single-owner: one goroutine appends, and the
//     flush callback runs on that same goroutine. It is the lock-free
//     per-thread buffer of the paper.
//   - Collector is safe for concurrent use. Writers should batch through
//     a LogBuffer whose flush target is Collector.Apply, which takes the
//     internal lock once per batch rather than once per record. Snapshot
//     and SnapshotStats swap double-buffered accumulator maps under the
//     lock in O(classes) pointer operations and do all rate computation
//     outside it, so readers never stall writers for the duration of a
//     snapshot.
//
// AccessWindow and Histogram are plain single-owner data structures.
// In this repository each engine owns one LogBuffer, one Collector and
// its access windows on the simulation goroutine; internal/core reads
// snapshots on that goroutine after the engine has flushed its buffer.
package metrics

import (
	"fmt"
	"sync"
)

// Metric identifies one of the per-query-class performance metrics the
// system monitors.
type Metric int

// The monitored metrics, in the order the paper lists them. LockWait
// extends the paper's set with the lock-contention counter its §7 future
// work calls for.
const (
	Latency      Metric = iota // average query latency (seconds)
	Throughput                 // completed queries per second
	BufferMisses               // buffer-pool misses per second
	PageAccesses               // logical page accesses per second
	IORequests                 // I/O block requests per second
	ReadAhead                  // prefetch (read-ahead) requests per second
	LockWait                   // seconds spent waiting for locks, per second
	numMetrics
)

// NumMetrics is the number of distinct monitored metrics.
const NumMetrics = int(numMetrics)

var metricNames = [...]string{
	Latency:      "latency",
	Throughput:   "throughput",
	BufferMisses: "misses",
	PageAccesses: "page_accesses",
	IORequests:   "io_requests",
	ReadAhead:    "read_ahead",
	LockWait:     "lock_wait",
}

func (m Metric) String() string {
	if m < 0 || int(m) >= NumMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// MemoryMetrics lists the "memory related counters" of §3.3.1 used to flag
// problem query classes: page accesses, buffer-pool misses and read-ahead.
var MemoryMetrics = []Metric{PageAccesses, BufferMisses, ReadAhead}

// Vector holds one value per metric for a single query class over one
// measurement interval. The zero value is all zeros and ready to use.
type Vector [NumMetrics]float64

// Get returns the value for m.
func (v Vector) Get(m Metric) float64 { return v[m] }

// Set assigns the value for m.
func (v *Vector) Set(m Metric, x float64) { v[m] = x }

// ClassID identifies a query class context: a set of query instances with
// the same template but different arguments, belonging to one application.
type ClassID struct {
	App   string // application name, e.g. "tpcw"
	Class string // query template name, e.g. "BestSeller"
}

func (c ClassID) String() string { return c.App + "/" + c.Class }

// classAccum accumulates raw counters for one query class during the
// current measurement interval. The latency histogram survives resets
// (cleared, not reallocated) so steady-state snapshots allocate nothing
// per class.
type classAccum struct {
	queries     int64
	latencySum  float64
	misses      int64
	accesses    int64
	ioReqs      int64
	readAhead   int64
	lockWaitSum float64
	latencies   *Histogram
}

func (a *classAccum) reset() {
	h := a.latencies
	*a = classAccum{latencies: h}
	if h != nil {
		h.Reset()
	}
}

// fold accumulates one record. The caller has already resolved which
// class accumulator the record belongs to.
func (a *classAccum) fold(r Record) {
	switch r.Kind {
	case RecQuery:
		a.queries++
		a.latencySum += r.Value
		if a.latencies == nil {
			a.latencies = NewHistogram()
		}
		a.latencies.Observe(r.Value)
	case RecAccess:
		a.accesses += int64(r.Value)
	case RecMiss:
		a.misses += int64(r.Value)
	case RecIO:
		a.ioReqs += int64(r.Value)
	case RecReadAhead:
		a.readAhead += int64(r.Value)
	case RecLockWait:
		a.lockWaitSum += r.Value
	}
}

// Slot is a dense per-collector class index handed out by SlotFor. A
// slotted Record skips the per-record map lookup on the accumulation hot
// path in favour of a slice index. The zero Slot means "unassigned" and
// always falls back to the class map, so producers that never learn
// their slot keep working unchanged.
//
// A Slot is only meaningful to the Collector that issued it: records
// carrying a slot must be applied to exactly that collector. Applying a
// foreign slot silently credits another class.
type Slot int32

// Collector accumulates per-query-class samples and produces per-interval
// metric vectors. It is safe for concurrent use: record methods take an
// internal mutex (Apply amortizes it over a whole batch), and snapshots
// swap double-buffered accumulator maps under the lock — an O(classes)
// pointer exchange — then compute all rates outside it, so a reader
// closing an interval never stalls writers behind per-class histogram
// work.
type Collector struct {
	mu    sync.Mutex
	accum map[ClassID]*classAccum
	// spare is the detached buffer of the previous snapshot, kept with
	// zeroed counters (and every known class's entry) so the next swap
	// reuses it instead of reallocating — the "double" of the double
	// buffer.
	spare map[ClassID]*classAccum
	// slots maps each class to its dense SlotFor index; assignments are
	// permanent for the collector's lifetime.
	slots map[ClassID]Slot
	// bySlot caches slot→accumulator for the *current* front buffer. It
	// is invalidated (cleared, not reallocated) on every buffer swap and
	// refilled lazily by accumFor, bounding the cost of the cache to one
	// map lookup per class per interval.
	bySlot []*classAccum
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{accum: make(map[ClassID]*classAccum)}
}

// get returns the accumulator for id; callers must hold c.mu.
func (c *Collector) get(id ClassID) *classAccum {
	a := c.accum[id]
	if a == nil {
		a = &classAccum{}
		c.accum[id] = a
	}
	return a
}

// SlotFor returns the dense accumulation slot for id, assigning one on
// first use. Producers resolve the slot once per class and stamp it on
// their Records so the accumulation hot path indexes a slice instead of
// hashing the ClassID per record. Slots are never reused or invalidated.
func (c *Collector) SlotFor(id ClassID) Slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.slots[id]; ok {
		return s
	}
	if c.slots == nil {
		c.slots = make(map[ClassID]Slot)
	}
	s := Slot(len(c.slots) + 1)
	c.slots[id] = s
	return s
}

// accumFor resolves the accumulator for r, preferring the record's
// pre-resolved slot over the class-map lookup; callers must hold c.mu.
// The bySlot cache is cleared on every buffer swap, so a slotted class
// pays the map exactly once per interval and a slice index thereafter.
func (c *Collector) accumFor(r Record) *classAccum {
	if s := int(r.Slot); s > 0 {
		if s <= len(c.bySlot) {
			if a := c.bySlot[s-1]; a != nil {
				return a
			}
		}
		a := c.get(r.Class)
		for len(c.bySlot) < s {
			c.bySlot = append(c.bySlot, nil)
		}
		c.bySlot[s-1] = a
		return a
	}
	return c.get(r.Class)
}

// apply folds one record into the accumulators; callers must hold c.mu.
func (c *Collector) apply(r Record) {
	c.accumFor(r).fold(r)
}

// Apply folds a batch of records into the collector under one lock
// acquisition. It is the flush target wiring a private LogBuffer to a
// collector (see Drain) and the reason batched producers see the mutex
// once per buffer fill rather than once per event.
func (c *Collector) Apply(batch []Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range batch {
		c.apply(r)
	}
}

// RecordQuery records a completed query of class id with the given latency
// in seconds.
func (c *Collector) RecordQuery(id ClassID, latency float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(Record{Kind: RecQuery, Class: id, Value: latency})
}

// RecordAccess records a logical page access; miss reports whether it
// missed in the buffer pool. It logs the same count records a query's
// accesses produce: one access, plus one miss when it missed.
func (c *Collector) RecordAccess(id ClassID, miss bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(Record{Kind: RecAccess, Class: id, Value: 1})
	if miss {
		c.apply(Record{Kind: RecMiss, Class: id, Value: 1})
	}
}

// RecordLockWait records seconds spent waiting for a lock on behalf of
// id.
func (c *Collector) RecordLockWait(id ClassID, seconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(Record{Kind: RecLockWait, Class: id, Value: seconds})
}

// RecordIO records n I/O block requests issued on behalf of id.
func (c *Collector) RecordIO(id ClassID, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(Record{Kind: RecIO, Class: id, Value: float64(n)})
}

// RecordReadAhead records n read-ahead (prefetch) requests issued on
// behalf of id.
func (c *Collector) RecordReadAhead(id ClassID, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(Record{Kind: RecReadAhead, Class: id, Value: float64(n)})
}

// Queries reports the number of completed queries recorded for id in the
// current interval.
func (c *Collector) Queries(id ClassID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.accum[id]; a != nil {
		return a.queries
	}
	return 0
}

// LatencySummary condenses one query class's per-query latency
// distribution over a measurement interval. Quantiles come from the
// class's logarithmic histogram (≤15% overestimates — the safe direction
// for SLA work); Mean and Max are exact.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// ClassStats couples a class's per-interval metric vector with its
// latency distribution — the Vector-adjacent snapshot data consumers use
// when average latency alone is not enough.
type ClassStats struct {
	Vector  Vector
	Latency LatencySummary
	// Hist is an independent copy of the interval's latency histogram
	// (nil when the class completed no queries); receivers may retain
	// and merge it.
	Hist *Histogram
}

// checkInterval rejects non-positive measurement intervals. Rates divided
// by a zero or negative interval are silently wrong in every consumer
// (outlier detection would compare garbage ratios), so this is a
// programming error worth a panic rather than a coerced default.
func checkInterval(interval float64) {
	if interval <= 0 {
		panic(fmt.Sprintf("metrics: Snapshot requires a positive interval in seconds, got %v", interval))
	}
}

// Snapshot converts the counters accumulated over an interval of the given
// length (seconds) into one metric vector per query class, then resets the
// collector for the next interval. Classes with no activity yield a zero
// vector and are still reported, so stable-state signatures keep an entry
// for idle classes. A non-positive interval panics.
func (c *Collector) Snapshot(interval float64) map[ClassID]Vector {
	stats := c.snapshotStats(interval, false)
	out := make(map[ClassID]Vector, len(stats))
	for id, s := range stats {
		out[id] = s.Vector
	}
	return out
}

// SnapshotStats is Snapshot with the per-class latency distributions
// attached. Like Snapshot it resets the collector; call one or the other
// per interval, not both.
func (c *Collector) SnapshotStats(interval float64) map[ClassID]ClassStats {
	return c.snapshotStats(interval, true)
}

// snapshotStats implements both snapshot flavours; withHist controls
// whether per-class histogram copies are made (an allocation the plain
// vector path should not pay). The lock is held only for the buffer
// swap; the per-class computation runs on the detached buffer.
func (c *Collector) snapshotStats(interval float64, withHist bool) map[ClassID]ClassStats {
	checkInterval(interval)
	taken := c.takeAccums()
	out := computeStats(taken, interval, withHist)
	c.releaseAccums(taken)
	return out
}

// takeAccums detaches the current accumulator map and installs the spare
// in its place. Every class known to the outgoing buffer gets an entry in
// the incoming one, so idle classes keep appearing in snapshots (Snapshot
// promises a zero vector for them) even though the maps alternate.
func (c *Collector) takeAccums() map[ClassID]*classAccum {
	c.mu.Lock()
	defer c.mu.Unlock()
	front := c.accum
	back := c.spare
	if back == nil {
		back = make(map[ClassID]*classAccum, len(front))
	}
	for id := range front {
		if _, ok := back[id]; !ok {
			back[id] = &classAccum{}
		}
	}
	c.accum = back
	c.spare = nil
	// The slot cache points into the detached buffer; invalidate it so
	// slotted records re-resolve against the incoming one.
	clear(c.bySlot)
	return front
}

// releaseAccums zeroes a detached buffer and stores it as the spare for
// the next swap. Resetting happens outside the lock: histograms clear in
// O(buckets) per class, which writers should not wait behind.
func (c *Collector) releaseAccums(m map[ClassID]*classAccum) {
	for _, a := range m {
		a.reset()
	}
	c.mu.Lock()
	if c.spare == nil {
		c.spare = m
	}
	c.mu.Unlock()
}

// computeStats turns detached accumulators into per-class stats. It does
// not reset the accumulators.
func computeStats(accums map[ClassID]*classAccum, interval float64, withHist bool) map[ClassID]ClassStats {
	out := make(map[ClassID]ClassStats, len(accums))
	for id, a := range accums {
		var s ClassStats
		v := &s.Vector
		if a.queries > 0 {
			v[Latency] = a.latencySum / float64(a.queries)
			qs := a.latencies.Percentiles(0.5, 0.95, 0.99)
			s.Latency = LatencySummary{
				Count: a.queries,
				Mean:  a.latencies.Mean(),
				P50:   qs[0],
				P95:   qs[1],
				P99:   qs[2],
				Max:   a.latencies.Max(),
			}
			if withHist {
				s.Hist = a.latencies.Clone()
			}
		}
		v[Throughput] = float64(a.queries) / interval
		v[BufferMisses] = float64(a.misses) / interval
		v[PageAccesses] = float64(a.accesses) / interval
		v[IORequests] = float64(a.ioReqs) / interval
		v[ReadAhead] = float64(a.readAhead) / interval
		v[LockWait] = a.lockWaitSum / interval
		out[id] = s
	}
	return out
}

// Classes returns the identifiers currently tracked, in unspecified order.
func (c *Collector) Classes() []ClassID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ClassID, 0, len(c.accum))
	for id := range c.accum {
		out = append(out, id)
	}
	return out
}
