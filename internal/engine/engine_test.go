package engine

import (
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
)

var (
	best = metrics.ClassID{App: "tpcw", Class: "BestSeller"}
	home = metrics.ClassID{App: "tpcw", Class: "Home"}
)

func testHost() *server.Server {
	return server.MustNew(server.Config{
		Name: "s1", Cores: 4, MemoryPages: 100000,
		Disk: storage.Params{Seek: 0.005, PerPage: 0.0001},
	})
}

func newTestEngine(t *testing.T, poolPages int) *Engine {
	t.Helper()
	e, err := New(Config{Name: "mysql-1", Pool: bufferpool.Config{Capacity: poolPages}}, testHost())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Pool: bufferpool.Config{Capacity: 10}}, nil); err == nil {
		t.Fatal("nil host accepted")
	}
	if _, err := New(Config{Pool: bufferpool.Config{Capacity: 0}}, testHost()); err == nil {
		t.Fatal("bad pool config accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	e := newTestEngine(t, 100)
	cases := []ClassSpec{
		{},
		{ID: best, CPUPerQuery: -1},
		{ID: best, PagesPerQuery: -1},
		{ID: best, PagesPerQuery: 5}, // pages but no pattern
	}
	for i, spec := range cases {
		if err := e.Register(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
	ok := ClassSpec{ID: best, CPUPerQuery: 0.01, PagesPerQuery: 2, Pattern: &trace.SequentialScan{Span: 10}}
	if err := e.Register(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, found := e.Class(best); !found {
		t.Fatal("registered class not found")
	}
	if n := len(e.Classes()); n != 1 {
		t.Fatalf("Classes = %d entries", n)
	}
}

// TestClassesSorted pins Classes to ID.String() order on every call:
// memory diagnosis merges the classes' access windows in this order, so
// map order would make its output vary from run to run.
func TestClassesSorted(t *testing.T) {
	e := newTestEngine(t, 100)
	// "a-b/x" sorts before "a/x" by String() but after it by App alone.
	for _, id := range []metrics.ClassID{
		{App: "shop", Class: "Search"}, {App: "a", Class: "x"}, {App: "a-b", Class: "x"},
		{App: "shop", Class: "Buy"}, {App: "auction", Class: "Bid"}, {App: "a", Class: "w"},
	} {
		if err := e.Register(ClassSpec{ID: id, CPUPerQuery: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a-b/x", "a/w", "a/x", "auction/Bid", "shop/Buy", "shop/Search"}
	for i := 0; i < 50; i++ {
		got := e.Classes()
		if len(got) != len(want) {
			t.Fatalf("Classes = %v", got)
		}
		for k, id := range got {
			if id.String() != want[k] {
				t.Fatalf("call %d: Classes = %v, want %v", i, got, want)
			}
		}
	}
}

func TestExecuteUnknownClass(t *testing.T) {
	e := newTestEngine(t, 100)
	if _, err := e.Execute(0, best); err == nil {
		t.Fatal("executing unregistered class succeeded")
	}
}

func TestExecuteCPUOnlyQuery(t *testing.T) {
	e := newTestEngine(t, 100)
	if err := e.Register(ClassSpec{ID: best, CPUPerQuery: 0.02}); err != nil {
		t.Fatal(err)
	}
	done, err := e.Execute(1.0, best)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1.02 {
		t.Fatalf("done = %v, want 1.02", done)
	}
}

func TestExecuteColdQueryPaysIO(t *testing.T) {
	e := newTestEngine(t, 1000)
	spec := ClassSpec{ID: best, CPUPerQuery: 0.001, PagesPerQuery: 10,
		Pattern: &trace.SequentialScan{Span: 10}}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Execute(0, best)
	if err != nil {
		t.Fatal(err)
	}
	// 10 cold misses at ≥5ms each must dominate the 1ms CPU.
	if cold < 0.05 {
		t.Fatalf("cold query done = %v, want ≥ 0.05 (10 disk reads)", cold)
	}
	// Second execution hits the warm pool: latency ≈ CPU only.
	warm, err := e.Execute(10, best)
	if err != nil {
		t.Fatal(err)
	}
	if lat := warm - 10; lat > 0.01 {
		t.Fatalf("warm query latency = %v, want ≈ 0.001", lat)
	}
}

func TestExecuteRecordsMetrics(t *testing.T) {
	e := newTestEngine(t, 1000)
	spec := ClassSpec{ID: best, CPUPerQuery: 0.001, PagesPerQuery: 5,
		Pattern: &trace.SequentialScan{Span: 5}}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(0, best); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(1, best); err != nil {
		t.Fatal(err)
	}
	s, ok := e.Snapshot(10, false)[best]
	v := s.Vector
	if !ok {
		t.Fatal("class missing from snapshot")
	}
	if v.Get(metrics.Throughput) != 0.2 {
		t.Errorf("throughput = %v, want 0.2 (2 queries / 10s)", v.Get(metrics.Throughput))
	}
	if v.Get(metrics.PageAccesses) != 1.0 {
		t.Errorf("page accesses = %v/s, want 1.0 (10 accesses / 10s)", v.Get(metrics.PageAccesses))
	}
	if v.Get(metrics.BufferMisses) != 0.5 {
		t.Errorf("misses = %v/s, want 0.5 (5 cold misses / 10s)", v.Get(metrics.BufferMisses))
	}
	if v.Get(metrics.IORequests) != 0.5 {
		t.Errorf("io = %v/s, want 0.5", v.Get(metrics.IORequests))
	}
	if v.Get(metrics.Latency) <= 0 {
		t.Error("latency not recorded")
	}
}

func TestAccessWindowFeedsMRC(t *testing.T) {
	e := newTestEngine(t, 1000)
	spec := ClassSpec{ID: best, PagesPerQuery: 7, Pattern: &trace.SequentialScan{Span: 7}}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(0, best); err != nil {
		t.Fatal(err)
	}
	w := e.Window(best)
	if len(w) != 7 {
		t.Fatalf("window has %d accesses, want 7", len(w))
	}
	for i, pg := range w {
		if pg != uint64(i) {
			t.Fatalf("window = %v, want 0..6 in order", w)
		}
	}
	if e.Window(home) != nil {
		t.Fatal("unknown class returned a window")
	}
}

func TestReadAheadLoggedAsPrefetch(t *testing.T) {
	e, err := New(Config{
		Name: "mysql-1",
		Pool: bufferpool.Config{Capacity: 10000, ReadAheadRun: 3, ReadAheadPages: 16},
	}, testHost())
	if err != nil {
		t.Fatal(err)
	}
	spec := ClassSpec{ID: best, PagesPerQuery: 100, Pattern: &trace.SequentialScan{Span: 100000}}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(0, best); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot(1, false)
	if snap[best].Vector.Get(metrics.ReadAhead) == 0 {
		t.Fatal("sequential scan logged no read-ahead")
	}
}

func TestTwoClassesShareThePool(t *testing.T) {
	e := newTestEngine(t, 50)
	scanA := ClassSpec{ID: best, PagesPerQuery: 40, Pattern: &trace.SequentialScan{Span: 40}}
	scanB := ClassSpec{ID: home, PagesPerQuery: 40, Pattern: &trace.SequentialScan{Base: 1000, Span: 40}}
	if err := e.Register(scanA); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(scanB); err != nil {
		t.Fatal(err)
	}
	// Warm A, then run B (evicts most of A), then A again: A must miss.
	if _, err := e.Execute(0, best); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(1, home); err != nil {
		t.Fatal(err)
	}
	e.Pool().ResetStats()
	if _, err := e.Execute(2, best); err != nil {
		t.Fatal(err)
	}
	if hr := e.HitRatio(best); hr > 0.5 {
		t.Fatalf("interfered class hit ratio = %.2f, want low", hr)
	}
}

func TestDeregisterStopsExecution(t *testing.T) {
	e := newTestEngine(t, 100)
	if err := e.Register(ClassSpec{ID: best, CPUPerQuery: 0.01}); err != nil {
		t.Fatal(err)
	}
	e.Deregister(best)
	if _, err := e.Execute(0, best); err == nil {
		t.Fatal("deregistered class still executes")
	}
}

func TestWriteClassLocksSerialize(t *testing.T) {
	e := newTestEngine(t, 1000)
	w := metrics.ClassID{App: "shop", Class: "UpdateStock"}
	if err := e.Register(ClassSpec{ID: w, CPUPerQuery: 0.001, Write: true,
		LockTable: "stock", LockHold: 0.5}); err != nil {
		t.Fatal(err)
	}
	d1, err := e.Execute(0, w)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != 0.5 {
		t.Fatalf("first write done = %v, want lock hold 0.5", d1)
	}
	d2, err := e.Execute(0.1, w)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 1.0 {
		t.Fatalf("second write done = %v, want to queue behind the lock", d2)
	}
}

func TestReadWaitsForWriterLock(t *testing.T) {
	e := newTestEngine(t, 1000)
	w := metrics.ClassID{App: "shop", Class: "UpdateStock"}
	r := metrics.ClassID{App: "shop", Class: "CheckStock"}
	if err := e.Register(ClassSpec{ID: w, CPUPerQuery: 0.001, Write: true,
		LockTable: "stock", LockHold: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(ClassSpec{ID: r, CPUPerQuery: 0.002, LockTable: "stock"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(0, w); err != nil {
		t.Fatal(err)
	}
	done, err := e.Execute(0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	if done < 0.4 {
		t.Fatalf("reader finished at %v, should have waited for the lock until 0.4", done)
	}
	snap := e.Snapshot(1, false)
	if snap[r].Vector.Get(metrics.LockWait) <= 0 {
		t.Fatal("reader lock wait not recorded")
	}
	// Two readers do not serialize among themselves.
	dA, _ := e.Execute(1.0, r)
	dB, _ := e.Execute(1.0, r)
	if dB-1.0 > 2*(dA-1.0)+0.001 {
		t.Fatalf("readers serialized: %v then %v", dA, dB)
	}
}

func TestLockValidation(t *testing.T) {
	e := newTestEngine(t, 100)
	if err := e.Register(ClassSpec{ID: best, CPUPerQuery: 0.01, LockHold: -1,
		LockTable: "t"}); err == nil {
		t.Fatal("negative lock hold accepted")
	}
	if err := e.Register(ClassSpec{ID: best, CPUPerQuery: 0.01, LockHold: 0.1}); err == nil {
		t.Fatal("lock hold without table accepted")
	}
}

func TestEngineOnVMHost(t *testing.T) {
	s := server.MustNew(server.Config{Name: "s", Cores: 4, MemoryPages: 20000,
		Disk: storage.Params{Seek: 0.01, PerPage: 0}})
	vm, err := s.AddVM("dom1", 10000)
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(Config{Name: "mysql-vm", Pool: bufferpool.Config{Capacity: 100}}, vm)
	spec := ClassSpec{ID: best, PagesPerQuery: 1, Pattern: &trace.SequentialScan{Span: 1000}}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	done, err := e.Execute(0, best)
	if err != nil {
		t.Fatal(err)
	}
	if done < 0.01 {
		t.Fatalf("VM-hosted query did not pay dom-0 I/O: done = %v", done)
	}
	if s.Disk().Requests() != 1 {
		t.Fatalf("dom-0 saw %d requests, want 1", s.Disk().Requests())
	}
}

// TestWriteBackChargedToDirtyingClass checks that the write-back of an
// evicted dirty page is charged to the class that dirtied it, not to
// the class whose miss evicted it, and that a class enters snapshots
// with its first query, not with its registration.
func TestWriteBackChargedToDirtyingClass(t *testing.T) {
	e := newTestEngine(t, 8)
	writer := metrics.ClassID{App: "shop", Class: "UpdateStock"}
	reader := metrics.ClassID{App: "shop", Class: "ScanOrders"}
	idle := metrics.ClassID{App: "shop", Class: "Idle"}
	for _, spec := range []ClassSpec{
		{ID: writer, Write: true, PagesPerQuery: 8, Pattern: &trace.SequentialScan{Span: 8}},
		{ID: reader, PagesPerQuery: 16, Pattern: &trace.SequentialScan{Base: 1000, Span: 16}},
		{ID: idle, CPUPerQuery: 0.001},
	} {
		if err := e.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	// The writer dirties the whole pool; the reader's scan then evicts
	// every dirty page.
	if _, err := e.Execute(0, writer); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(1, reader); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot(1, false)
	if got := snap[writer].Vector.Get(metrics.IORequests); got != 16 {
		t.Errorf("writer I/O = %v, want 16 (8 demand reads + 8 write-backs)", got)
	}
	if got := snap[reader].Vector.Get(metrics.IORequests); got != 16 {
		t.Errorf("reader I/O = %v, want 16 demand reads", got)
	}
	if _, ok := snap[idle]; ok {
		t.Error("registered class that never ran is in the snapshot")
	}
	if _, err := e.Execute(2, idle); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot(1, false)[idle].Vector.Get(metrics.Throughput); got != 1 {
		t.Errorf("idle class after one query: throughput %v, want 1", got)
	}
	s, ok := e.Snapshot(1, false)[idle]
	if !ok || s.Vector != (metrics.Vector{}) {
		t.Errorf("idle interval: reported %v, vector %v; want a zero vector", ok, s.Vector)
	}
}
