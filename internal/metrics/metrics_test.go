package metrics

import (
	"fmt"
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

func TestCollectorSnapshotComputesRates(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(best, 0.5)
	c.RecordQuery(best, 1.5)
	for i := 0; i < 10; i++ {
		c.RecordAccess(best, i%2 == 0) // 5 misses
	}
	c.RecordIO(best, 4)
	c.RecordReadAhead(best, 2)

	snap := c.Snapshot(2.0)
	v, ok := snap[best]
	if !ok {
		t.Fatal("BestSeller missing from snapshot")
	}
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
}

func TestCollectorSnapshotResets(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(best, 1)
	c.Snapshot(1)
	snap := c.Snapshot(1)
	if v := snap[best]; v.Get(Throughput) != 0 {
		t.Errorf("second snapshot not reset: throughput = %v", v.Get(Throughput))
	}
}

func TestCollectorIdleClassStillReported(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(best, 1)
	c.Snapshot(1)
	snap := c.Snapshot(1)
	if _, ok := snap[best]; !ok {
		t.Fatal("idle class dropped from snapshot")
	}
}

func TestCollectorNonPositiveIntervalPanics(t *testing.T) {
	for _, interval := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Snapshot(%v) did not panic", interval)
				}
			}()
			c := NewCollector()
			c.RecordQuery(best, 1)
			c.Snapshot(interval)
		}()
	}
}

func TestCollectorSnapshotStatsPercentiles(t *testing.T) {
	c := NewCollector()
	// 97 fast queries and 3 slow ones: p50/p95 stay near 10ms, p99 and
	// max must surface the tail that the average hides.
	for i := 0; i < 97; i++ {
		c.RecordQuery(best, 0.010)
	}
	for i := 0; i < 3; i++ {
		c.RecordQuery(best, 2.0)
	}
	stats := c.SnapshotStats(10)
	s, ok := stats[best]
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
		t.Error("stats snapshot missing histogram copy")
	}
	// The vector view must agree with the summary's mean.
	if got, want := s.Vector.Get(Latency), lat.Mean; got != want {
		t.Errorf("vector latency %v != summary mean %v", got, want)
	}
	// Idle interval afterwards: summary resets, class still reported.
	stats = c.SnapshotStats(10)
	if s := stats[best]; s.Latency.Count != 0 || s.Hist != nil {
		t.Errorf("latency summary not reset: %+v", s.Latency)
	}
}

func TestCollectorTracksMultipleClasses(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(best, 1)
	c.RecordQuery(newp, 2)
	c.RecordQuery(sibr, 3)
	if got := len(c.Classes()); got != 3 {
		t.Fatalf("Classes() = %d entries, want 3", got)
	}
	snap := c.Snapshot(1)
	if snap[newp].Get(Latency) != 2 || snap[sibr].Get(Latency) != 3 {
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
		b.Append(Record{Kind: RecAccess, Class: best, Value: float64(i)})
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
	b := NewLogBuffer(2, Drain(c))
	b.Append(Record{Kind: RecQuery, Class: best, Value: 0.25})
	b.Append(Record{Kind: RecAccess, Class: best, Value: 1})
	b.Append(Record{Kind: RecMiss, Class: best, Value: 1})
	b.Append(Record{Kind: RecIO, Class: best, Value: 3})
	b.Append(Record{Kind: RecReadAhead, Class: best, Value: 5})
	b.Flush()
	snap := c.Snapshot(1)
	v := snap[best]
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
	absorb := func(snap map[ClassID]Vector) {
		for id, v := range snap {
			// interval 1.0 makes Throughput the raw query count.
			totals[id] += int64(v.Get(Throughput) + 0.5)
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
				absorb(c.Snapshot(1.0))
			}
		}
	}()

	shared := ClassID{App: "app", Class: "Shared"}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := NewLogBuffer(64, Drain(c))
			own := ClassID{App: "app", Class: fmt.Sprintf("C%d", p)}
			for i := 0; i < perClass; i++ {
				buf.Append(Record{Kind: RecQuery, Class: own, Value: 0.01})
				buf.Append(Record{Kind: RecQuery, Class: shared, Value: 0.02})
				buf.Append(Record{Kind: RecAccess, Class: own, Value: 1})
				if i%3 == 0 {
					buf.Append(Record{Kind: RecMiss, Class: own, Value: 1})
				}
			}
			buf.Flush() // producer shutdown: deliver the partial batch
		}(p)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	absorb(c.Snapshot(1.0))

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

// TestCollectorDoubleBuffer verifies the swap preserves Snapshot's
// contract: idle classes keep reporting zero vectors in later intervals,
// and counters never leak across the swap.
func TestCollectorDoubleBuffer(t *testing.T) {
	c := NewCollector()
	id := ClassID{App: "a", Class: "Q"}
	c.RecordQuery(id, 0.5)
	s1 := c.Snapshot(1)
	if got := s1[id].Get(Throughput); got != 1 {
		t.Fatalf("first interval throughput: got %v want 1", got)
	}
	// Two idle intervals: the class must still be reported, at zero, from
	// both halves of the double buffer.
	for i := 0; i < 2; i++ {
		s := c.Snapshot(1)
		v, ok := s[id]
		if !ok {
			t.Fatalf("interval %d: idle class vanished from snapshot", i+2)
		}
		if v != (Vector{}) {
			t.Fatalf("interval %d: idle class has non-zero vector %v", i+2, v)
		}
	}
	// Steady state: snapshots must not allocate fresh accumulator maps.
	allocs := testing.AllocsPerRun(100, func() {
		c.RecordQuery(id, 0.1)
		c.Snapshot(1)
	})
	// The result map and the percentile scratch are expected; the
	// accumulator maps and histograms themselves must be recycled, so a
	// rebuild (fresh map + accum + histogram per class) would exceed this.
	if allocs > 10 {
		t.Errorf("steady-state snapshot allocates %.1f objects per run", allocs)
	}
}

// TestApplyMatchesRecords checks the batch path and the per-record path
// accumulate identically.
func TestApplyMatchesRecords(t *testing.T) {
	id := ClassID{App: "a", Class: "Q"}
	batch := []Record{
		{Kind: RecQuery, Class: id, Value: 0.2},
		{Kind: RecAccess, Class: id, Value: 2},
		{Kind: RecMiss, Class: id, Value: 1},
		{Kind: RecIO, Class: id, Value: 7},
		{Kind: RecReadAhead, Class: id, Value: 4},
		{Kind: RecLockWait, Class: id, Value: 0.05},
	}
	a := NewCollector()
	a.Apply(batch)
	b := NewCollector()
	b.RecordQuery(id, 0.2)
	b.RecordAccess(id, true)
	b.RecordAccess(id, false)
	b.RecordIO(id, 7)
	b.RecordReadAhead(id, 4)
	b.RecordLockWait(id, 0.05)
	av, bv := a.Snapshot(2)[id], b.Snapshot(2)[id]
	if av != bv {
		t.Fatalf("Apply %v != record methods %v", av, bv)
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
