package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

var (
	best = ClassID{App: "tpcw", Class: "BestSeller"}
	newp = ClassID{App: "tpcw", Class: "NewProducts"}
	sibr = ClassID{App: "rubis", Class: "SearchItemsByRegion"}
)

// fold applies recs to c as records of class id, stamped with its slot.
func fold(c *Collector, id ClassID, recs ...Record) {
	slot := c.SlotFor(id)
	for i := range recs {
		recs[i].Slot = slot
	}
	c.Apply(recs)
}

// query is the record of one completed query.
func query(latency float64) Record { return Record{Kind: RecQuery, Value: latency} }

func TestCollectorSnapshotComputesRates(t *testing.T) {
	c := NewCollector()
	fold(c, best, query(0.5), query(1.5),
		Record{Kind: RecAccess, Value: 10}, Record{Kind: RecMiss, Value: 5},
		Record{Kind: RecIO, Value: 4}, Record{Kind: RecReadAhead, Value: 2},
		Record{Kind: RecLockWait, Value: 0.5})

	s, ok := c.Snapshot(2.0, false)[best]
	if !ok {
		t.Fatal("BestSeller missing from snapshot")
	}
	v := s.Vector
	if v.Get(Latency) != 1.0 {
		t.Errorf("latency = %v, want 1.0", v.Get(Latency))
	}
	if v.Get(Throughput) != 1.0 {
		t.Errorf("throughput = %v, want 1.0 (2 queries / 2s)", v.Get(Throughput))
	}
	if v.Get(PageAccesses) != 5.0 {
		t.Errorf("page accesses = %v, want 5.0/s", v.Get(PageAccesses))
	}
	if v.Get(BufferMisses) != 2.5 {
		t.Errorf("misses = %v, want 2.5/s", v.Get(BufferMisses))
	}
	if v.Get(IORequests) != 2.0 {
		t.Errorf("io = %v, want 2.0/s", v.Get(IORequests))
	}
	if v.Get(ReadAhead) != 1.0 {
		t.Errorf("readahead = %v, want 1.0/s", v.Get(ReadAhead))
	}
	if v.Get(LockWait) != 0.25 {
		t.Errorf("lock wait = %v, want 0.25 s/s", v.Get(LockWait))
	}
}

func TestCollectorSnapshotResets(t *testing.T) {
	c := NewCollector()
	fold(c, best, query(1))
	c.Snapshot(1, false)
	snap := c.Snapshot(1, false)
	if v := snap[best].Vector; v.Get(Throughput) != 0 {
		t.Errorf("second snapshot not reset: throughput = %v", v.Get(Throughput))
	}
}

func TestCollectorIdleClassStillReported(t *testing.T) {
	c := NewCollector()
	fold(c, best, query(1))
	c.Snapshot(1, false)
	snap := c.Snapshot(1, false)
	if _, ok := snap[best]; !ok {
		t.Fatal("idle class dropped from snapshot")
	}
}

// TestApplyZeroSlotPanics checks that a record logged without its slot
// is rejected rather than credited to another class.
func TestApplyZeroSlotPanics(t *testing.T) {
	c := NewCollector()
	c.SlotFor(best)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply folded a record with the zero Slot")
		}
	}()
	c.Apply([]Record{query(1)})
}

func TestCollectorNonPositiveIntervalPanics(t *testing.T) {
	for _, interval := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Snapshot(%v) did not panic", interval)
				}
			}()
			c := NewCollector()
			fold(c, best, query(1))
			c.Snapshot(interval, false)
		}()
	}
}

func TestCollectorSnapshotStatsPercentiles(t *testing.T) {
	c := NewCollector()
	// 97 fast queries and 3 slow ones: p50/p95 stay near 10ms, p99 and
	// max must surface the tail that the average hides.
	var recs []Record
	for i := 0; i < 97; i++ {
		recs = append(recs, query(0.010))
	}
	for i := 0; i < 3; i++ {
		recs = append(recs, query(2.0))
	}
	fold(c, best, recs...)
	s, ok := c.Snapshot(10, true)[best]
	if !ok {
		t.Fatal("BestSeller missing from stats snapshot")
	}
	lat := s.Latency
	if lat.Count != 100 {
		t.Fatalf("count = %d, want 100", lat.Count)
	}
	if lat.P50 > 0.02 {
		t.Errorf("p50 = %v, want ≈0.01", lat.P50)
	}
	if lat.P99 < 1.0 || lat.Max != 2.0 {
		t.Errorf("tail lost: p99 = %v, max = %v", lat.P99, lat.Max)
	}
	if lat.P95 > lat.P99 || lat.P50 > lat.P95 {
		t.Errorf("quantiles not monotone: %+v", lat)
	}
	if s.Hist == nil || s.Hist.Count() != 100 {
		t.Fatal("stats snapshot missing histogram copy")
	}
	// The vector view must agree with the summary's mean.
	if got, want := s.Vector.Get(Latency), lat.Mean; got != want {
		t.Errorf("vector latency %v != summary mean %v", got, want)
	}
	// Without withHist the summary is there and the histogram is not;
	// the copy handed out before survives the collector's reset.
	fold(c, best, query(0.5))
	if s2 := c.Snapshot(10, false)[best]; s2.Latency.Count != 1 || s2.Hist != nil {
		t.Errorf("snapshot without histogram: count %d, hist %v", s2.Latency.Count, s2.Hist)
	}
	if s.Hist.Count() != 100 || s.Hist.Max() != 2.0 {
		t.Errorf("histogram copy changed with the collector: count %d, max %v", s.Hist.Count(), s.Hist.Max())
	}
	// Idle interval afterwards: summary resets, class still reported.
	if s := c.Snapshot(10, true)[best]; s.Latency.Count != 0 || s.Hist != nil {
		t.Errorf("latency summary not reset: %+v", s.Latency)
	}
}

func TestCollectorTracksMultipleClasses(t *testing.T) {
	c := NewCollector()
	// A class enters snapshots with its first record, not when SlotFor
	// assigns its slot: one that never ran would otherwise join the
	// outlier detector's population at a zero vector.
	c.SlotFor(ClassID{App: "tpcw", Class: "NeverRun"})
	fold(c, best, query(1))
	fold(c, newp, query(2))
	fold(c, sibr, query(3))
	snap := c.Snapshot(1, false)
	if got := len(snap); got != 3 {
		t.Fatalf("snapshot has %d classes, want the 3 that logged records", got)
	}
	if snap[newp].Vector.Get(Latency) != 2 || snap[sibr].Vector.Get(Latency) != 3 {
		t.Error("per-class latency mixed up between classes")
	}
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		Latency: "latency", Throughput: "throughput", BufferMisses: "misses",
		PageAccesses: "page_accesses", IORequests: "io_requests", ReadAhead: "read_ahead",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Metric(99).String() != "metric(99)" {
		t.Errorf("out-of-range metric string = %q", Metric(99).String())
	}
}

func TestMemoryMetricsMatchPaper(t *testing.T) {
	// §3.3.1: "outlier detection on the memory related counters, such as
	// page accesses, page misses and read-ahead".
	want := map[Metric]bool{PageAccesses: true, BufferMisses: true, ReadAhead: true}
	if len(MemoryMetrics) != len(want) {
		t.Fatalf("MemoryMetrics = %v", MemoryMetrics)
	}
	for _, m := range MemoryMetrics {
		if !want[m] {
			t.Errorf("unexpected memory metric %v", m)
		}
	}
}

func TestLogBufferFlushesWhenFull(t *testing.T) {
	var flushed [][]Record
	b := NewLogBuffer(3, func(batch []Record) {
		cp := make([]Record, len(batch))
		copy(cp, batch)
		flushed = append(flushed, cp)
	})
	for i := 0; i < 7; i++ {
		b.Append(Record{Kind: RecAccess, Slot: 1, Value: float64(i)})
	}
	if len(flushed) != 2 {
		t.Fatalf("flushes = %d, want 2 (two full batches of 3)", len(flushed))
	}
	if b.Len() != 1 {
		t.Fatalf("buffered = %d, want 1 leftover", b.Len())
	}
	b.Flush()
	if len(flushed) != 3 || len(flushed[2]) != 1 {
		t.Fatalf("final flush wrong: %d batches", len(flushed))
	}
	b.Flush() // empty flush is a no-op
	if b.Flushes() != 3 {
		t.Fatalf("Flushes() = %d, want 3", b.Flushes())
	}
}

func TestLogBufferDrainIntoCollector(t *testing.T) {
	c := NewCollector()
	slot := c.SlotFor(best)
	b := NewLogBuffer(2, c.Apply)
	b.Append(Record{Kind: RecQuery, Slot: slot, Value: 0.25})
	b.Append(Record{Kind: RecAccess, Slot: slot, Value: 1})
	b.Append(Record{Kind: RecMiss, Slot: slot, Value: 1})
	b.Append(Record{Kind: RecIO, Slot: slot, Value: 3})
	b.Append(Record{Kind: RecReadAhead, Slot: slot, Value: 5})
	b.Flush()
	v := c.Snapshot(1, false)[best].Vector
	if v.Get(Latency) != 0.25 || v.Get(BufferMisses) != 1 || v.Get(IORequests) != 3 || v.Get(ReadAhead) != 5 {
		t.Fatalf("drained vector wrong: %+v", v)
	}
}

// TestCollectorConcurrent drives many producer goroutines, each owning
// a private LogBuffer draining into one shared Collector, while a reader
// snapshots concurrently. Run under -race this checks the Collector's
// documented concurrent safety, and that no record is lost or duplicated
// across the interval boundaries the reader keeps cutting.
func TestCollectorConcurrent(t *testing.T) {
	const (
		producers = 8
		perClass  = 2000
	)
	c := NewCollector()
	totals := make(map[ClassID]int64) // queries observed across snapshots
	absorb := func(snap map[ClassID]ClassStats) {
		for id, s := range snap {
			// interval 1.0 makes Throughput the raw query count.
			totals[id] += int64(s.Vector.Get(Throughput) + 0.5)
		}
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				absorb(c.Snapshot(1.0, false))
			}
		}
	}()

	shared := ClassID{App: "app", Class: "Shared"}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := NewLogBuffer(64, c.Apply)
			own := c.SlotFor(ClassID{App: "app", Class: fmt.Sprintf("C%d", p)})
			sh := c.SlotFor(shared)
			for i := 0; i < perClass; i++ {
				buf.Append(Record{Kind: RecQuery, Slot: own, Value: 0.01})
				buf.Append(Record{Kind: RecQuery, Slot: sh, Value: 0.02})
				buf.Append(Record{Kind: RecAccess, Slot: own, Value: 1})
				if i%3 == 0 {
					buf.Append(Record{Kind: RecMiss, Slot: own, Value: 1})
				}
			}
			buf.Flush() // producer shutdown: deliver the partial batch
		}(p)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	absorb(c.Snapshot(1.0, true))

	for p := 0; p < producers; p++ {
		own := ClassID{App: "app", Class: fmt.Sprintf("C%d", p)}
		if got := totals[own]; got != perClass {
			t.Errorf("class %v: %d queries across snapshots, want %d", own, got, perClass)
		}
	}
	if got := totals[shared]; got != producers*perClass {
		t.Errorf("shared class: %d queries across snapshots, want %d", got, producers*perClass)
	}
}

// TestCollectorSteadyStateSnapshot verifies Snapshot's contract over
// several intervals: idle classes keep reporting zero vectors, counters
// never leak into the next interval, and a steady-state snapshot reuses
// the class's accumulator and histogram.
func TestCollectorSteadyStateSnapshot(t *testing.T) {
	c := NewCollector()
	id := ClassID{App: "a", Class: "Q"}
	fold(c, id, query(0.5))
	s1 := c.Snapshot(1, false)
	if got := s1[id].Vector.Get(Throughput); got != 1 {
		t.Fatalf("first interval throughput: got %v want 1", got)
	}
	// Two idle intervals: the class must still be reported, at zero.
	for i := 0; i < 2; i++ {
		s, ok := c.Snapshot(1, false)[id]
		if !ok {
			t.Fatalf("interval %d: idle class vanished from snapshot", i+2)
		}
		if s.Vector != (Vector{}) {
			t.Fatalf("interval %d: idle class has non-zero vector %v", i+2, s.Vector)
		}
	}
	// Steady state: snapshots must not allocate fresh accumulators.
	batch := []Record{{Kind: RecQuery, Slot: c.SlotFor(id), Value: 0.1}}
	allocs := testing.AllocsPerRun(100, func() {
		c.Apply(batch)
		c.Snapshot(1, false)
	})
	// The result map and the percentile scratch are expected; the
	// accumulators and histograms themselves must be recycled, so a
	// rebuild (fresh accumulator + histogram per class) would exceed
	// this.
	if allocs > 10 {
		t.Errorf("steady-state snapshot allocates %.1f objects per run", allocs)
	}
}

func TestAccessWindowOrderAndEviction(t *testing.T) {
	w := NewAccessWindow(4)
	for i := uint64(1); i <= 6; i++ {
		w.Add(i)
	}
	got := w.Snapshot()
	want := []uint64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	w.Reset()
	if w.Len() != 0 || len(w.Snapshot()) != 0 {
		t.Fatal("Reset did not clear window")
	}
}

func TestAccessWindowPartialFill(t *testing.T) {
	w := NewAccessWindow(10)
	w.Add(42)
	w.Add(43)
	got := w.Snapshot()
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("partial snapshot = %v", got)
	}
}

func TestAccessWindowProperty(t *testing.T) {
	// Before the first Add and after every one, before and after the
	// ring wraps, the snapshot is the last min(added, cap) values in
	// order.
	f := func(vals []uint64) bool {
		const capacity = 8
		w := NewAccessWindow(capacity)
		holds := func(want []uint64) bool {
			if !slices.Equal(w.Snapshot(), want) {
				return false
			}
			// AppendTail(dst, n) appends the last min(n, retained) of
			// them, and Tail(n)'s two ring slices, concatenated, are the
			// same.
			for n := 0; n <= capacity+1; n++ {
				tail := want[max(0, len(want)-n):]
				if !slices.Equal(w.AppendTail([]uint64{7}, n), append([]uint64{7}, tail...)) {
					return false
				}
				older, newer := w.Tail(n)
				if !slices.Equal(slices.Concat(older, newer), tail) {
					return false
				}
			}
			return true
		}
		if !holds([]uint64{}) {
			return false
		}
		for i, v := range vals {
			w.Add(v)
			if !holds(vals[max(0, i+1-capacity) : i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
