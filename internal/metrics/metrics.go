// Package metrics implements the statistics-collection layer of the paper
// (§3.3): lightweight per-query-class monitoring of latency, throughput,
// buffer-pool misses, page accesses, I/O block requests and read-ahead
// (prefetch) requests, plus a window of the most recent page accesses per
// query class.
//
// Collection is tied to query class contexts: every record carries the
// slot of the query class it belongs to, and Snapshot produces one
// metric vector, with its latency summary, per class for each
// measurement interval.
//
// # Concurrency and ownership
//
// The package mirrors the paper's §4 design — "to avoid locking overhead,
// we create a private logging buffer per thread" — with two layers:
//
//   - LogBuffer is strictly single-owner: one goroutine appends, and the
//     flush callback runs on that same goroutine. It is the lock-free
//     per-thread buffer of the paper.
//   - Collector is safe for concurrent use. Writers batch through a
//     LogBuffer whose flush target is Collector.Apply, which takes the
//     internal lock once per batch rather than once per record and
//     folds each record into the slice entry of its slot. Snapshot
//     holds the same lock while it computes the interval's rates and
//     resets the counters.
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
	id ClassID
	// seen is set by the class's first record; from then on every
	// snapshot reports the class, at a zero vector when it is idle.
	seen        bool
	queries     int64
	latencySum  float64
	misses      int64
	accesses    int64
	ioReqs      int64
	readAhead   int64
	lockWaitSum float64
	latencies   *Histogram
}

// reset zeroes the interval counters, keeping the class's identity and
// its histogram.
func (a *classAccum) reset() {
	if a.queries > 0 {
		a.latencies.Reset()
	}
	*a = classAccum{id: a.id, seen: a.seen, latencies: a.latencies}
}

// fold accumulates one record.
func (a *classAccum) fold(r Record) {
	a.seen = true
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

// Slot is a dense per-collector class index handed out by SlotFor; every
// Record carries the slot of its class. The zero Slot is invalid: a
// record logged without its slot panics when folded instead of
// crediting another class.
//
// A Slot is only meaningful to the Collector that issued it: records
// must be applied to exactly that collector. Another collector credits
// whichever of its classes holds the same slot, or panics if none does.
type Slot int32

// Collector accumulates per-query-class samples and produces per-interval
// metric vectors. It is safe for concurrent use: SlotFor, Apply and
// Snapshot each hold an internal mutex, and Apply takes it once per
// batch.
type Collector struct {
	mu sync.Mutex
	// slots maps each class to its SlotFor index; assignments are
	// permanent for the collector's lifetime.
	slots map[ClassID]Slot
	// classes[s-1] accumulates the records of slot s.
	classes []classAccum
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{slots: make(map[ClassID]Slot)}
}

// SlotFor returns the accumulation slot for id, assigning one on first
// use. Producers resolve the slot once per class and stamp it on their
// Records, so the fold indexes a slice instead of hashing the ClassID
// per record. Slots are never reused or invalidated. Assigning a slot
// does not make the class appear in snapshots; its first record does.
func (c *Collector) SlotFor(id ClassID) Slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.slots[id]; ok {
		return s
	}
	c.classes = append(c.classes, classAccum{id: id})
	s := Slot(len(c.classes))
	c.slots[id] = s
	return s
}

// Apply folds a batch of records into the collector under one lock
// acquisition. It is the flush target wiring a private LogBuffer to a
// collector and the reason batched producers see the mutex once per
// buffer fill rather than once per event. A record whose Slot this
// collector did not issue, the zero Slot included, panics.
func (c *Collector) Apply(batch []Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range batch {
		c.classes[r.Slot-1].fold(r)
	}
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
// latency distribution, for consumers that need more than the average
// latency.
type ClassStats struct {
	Vector  Vector
	Latency LatencySummary
	// Hist is an independent copy of the interval's latency histogram,
	// set only when the snapshot asked for it and the class completed
	// queries; receivers may retain and merge it.
	Hist *Histogram
}

// Snapshot converts the counters accumulated over an interval of the
// given length (seconds) into per-class stats, then resets the counters
// for the next interval. A class is reported from its first record on;
// in an interval without activity it gets a zero vector, so stable-state
// signatures keep an entry for idle classes. withHist attaches an
// independent copy of each active class's latency histogram, an
// allocation only observers need. An interval that is not positive
// (NaN included) panics: rates divided by it would be silently wrong in
// every consumer.
func (c *Collector) Snapshot(interval float64, withHist bool) map[ClassID]ClassStats {
	if !(interval > 0) {
		panic(fmt.Sprintf("metrics: Snapshot requires a positive interval in seconds, got %v", interval))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ClassID]ClassStats, len(c.classes))
	for i := range c.classes {
		a := &c.classes[i]
		if !a.seen {
			continue
		}
		out[a.id] = a.stats(interval, withHist)
		a.reset()
	}
	return out
}

// stats turns one class's counters into its per-interval stats.
func (a *classAccum) stats(interval float64, withHist bool) ClassStats {
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
	return s
}
