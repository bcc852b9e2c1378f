package bufferpool

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := New(Config{Capacity: -5}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestBasicHitMiss(t *testing.T) {
	p := MustNew(Config{Capacity: 2})
	if r := p.Access(p.Class("a"), 1); r.Hit {
		t.Fatal("first access hit")
	}
	if r := p.Access(p.Class("a"), 1); !r.Hit {
		t.Fatal("second access missed")
	}
	st := p.Stats("a")
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	p := MustNew(Config{Capacity: 2})
	p.Access(p.Class("a"), 1)
	p.Access(p.Class("a"), 2)
	p.Access(p.Class("a"), 1) // 1 is now MRU, 2 is LRU
	p.Access(p.Class("a"), 3) // evicts 2
	if !p.Contains("a", 1) {
		t.Error("MRU page 1 evicted")
	}
	if p.Contains("a", 2) {
		t.Error("LRU page 2 not evicted")
	}
	if !p.Contains("a", 3) {
		t.Error("new page 3 not resident")
	}
	if p.Stats("a").Evictions != 1 {
		t.Errorf("evictions = %d, want 1", p.Stats("a").Evictions)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint8, cap8 uint8) bool {
		capacity := int(cap8%16) + 1
		p := MustNew(Config{Capacity: capacity})
		for i, pg := range pages {
			class := "a"
			if i%3 == 0 {
				class = "b"
			}
			p.Access(p.Class(class), uint64(pg))
			if p.Resident() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPoolInterference(t *testing.T) {
	// Class b scanning a large range should evict class a's working set
	// in a shared pool — the §5.4 phenomenon.
	p := MustNew(Config{Capacity: 100})
	for pg := uint64(0); pg < 50; pg++ {
		p.Access(p.Class("a"), pg)
	}
	for pg := uint64(1000); pg < 1200; pg++ {
		p.Access(p.Class("b"), pg)
	}
	p.ResetStats()
	for pg := uint64(0); pg < 50; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if hr := p.Stats("a").HitRatio(); hr > 0.1 {
		t.Fatalf("class a hit ratio %.2f after interference, want ~0", hr)
	}
}

func TestQuotaIsolatesClass(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 60); err != nil {
		t.Fatal(err)
	}
	// Warm a's partition.
	for pg := uint64(0); pg < 50; pg++ {
		p.Access(p.Class("a"), pg)
	}
	// b's scan can only use the 40-page shared remainder.
	for pg := uint64(1000); pg < 1500; pg++ {
		p.Access(p.Class("b"), pg)
	}
	p.ResetStats()
	for pg := uint64(0); pg < 50; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if hr := p.Stats("a").HitRatio(); hr != 1.0 {
		t.Fatalf("quota'd class hit ratio %.2f, want 1.0", hr)
	}
	if p.SharedCapacity() != 40 {
		t.Fatalf("shared capacity = %d, want 40", p.SharedCapacity())
	}
}

func TestQuotaPartitionNeverExceedsQuota(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 10); err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < 1000; pg++ {
		p.Access(p.Class("a"), pg)
	}
	resident := 0
	for pg := uint64(0); pg < 1000; pg++ {
		if p.Contains("a", pg) {
			resident++
		}
	}
	if resident > 10 {
		t.Fatalf("partition holds %d pages, quota 10", resident)
	}
}

func TestQuotaMigratesResidentPages(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	for pg := uint64(0); pg < 20; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if err := p.SetQuota("a", 30); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for pg := uint64(0); pg < 20; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if hr := p.Stats("a").HitRatio(); hr != 1.0 {
		t.Fatalf("pages not migrated into new partition: hit ratio %.2f", hr)
	}
}

func TestQuotaExceedingCapacityRejected(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("b", 50); err == nil {
		t.Fatal("overlapping quotas accepted")
	}
	if err := p.SetQuota("a", 120); err == nil {
		t.Fatal("oversized resize accepted")
	}
	if err := p.SetQuota("", 10); err == nil {
		t.Fatal("reserved class name accepted")
	}
	if err := p.SetQuota("c", -1); err == nil {
		t.Fatal("negative quota accepted")
	}
}

func TestQuotaResize(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 50); err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < 50; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if err := p.SetQuota("a", 10); err != nil {
		t.Fatal(err)
	}
	resident := 0
	for pg := uint64(0); pg < 50; pg++ {
		if p.Contains("a", pg) {
			resident++
		}
	}
	if resident > 10 {
		t.Fatalf("shrunk partition holds %d pages", resident)
	}
	if p.SharedCapacity() != 90 {
		t.Fatalf("shared capacity = %d after shrink, want 90", p.SharedCapacity())
	}
}

func TestRemoveQuota(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 40); err != nil {
		t.Fatal(err)
	}
	p.RemoveQuota("a")
	if p.SharedCapacity() != 100 {
		t.Fatalf("shared capacity = %d after removal, want 100", p.SharedCapacity())
	}
	if _, ok := p.Quota("a"); ok {
		t.Fatal("quota still present after removal")
	}
	p.RemoveQuota("never-set") // no-op must not panic
}

func TestZeroQuotaCachesNothing(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 0); err != nil {
		t.Fatal(err)
	}
	p.Access(p.Class("a"), 1)
	if r := p.Access(p.Class("a"), 1); r.Hit {
		t.Fatal("zero-quota class got a hit")
	}
}

func TestReadAheadTriggersAfterSequentialRun(t *testing.T) {
	p := MustNew(Config{Capacity: 1000, ReadAheadRun: 4, ReadAheadPages: 8})
	var prefetched int
	for pg := uint64(0); pg < 10; pg++ {
		r := p.Access(p.Class("scan"), pg)
		prefetched += r.Prefetched
	}
	if prefetched == 0 {
		t.Fatal("sequential scan never triggered read-ahead")
	}
	st := p.Stats("scan")
	if st.Prefetches != int64(prefetched) {
		t.Fatalf("Prefetches stat %d != returned %d", st.Prefetches, prefetched)
	}
	// Pages beyond the scan position should now be resident.
	if !p.Contains("scan", 12) {
		t.Error("prefetched page not resident")
	}
}

func TestReadAheadMakesLaterAccessesHit(t *testing.T) {
	p := MustNew(Config{Capacity: 1000, ReadAheadRun: 2, ReadAheadPages: 16})
	for pg := uint64(0); pg < 40; pg++ {
		p.Access(p.Class("scan"), pg)
	}
	st := p.Stats("scan")
	if st.Hits == 0 {
		t.Fatal("read-ahead produced no hits on a pure sequential scan")
	}
	if st.Misses >= st.Hits {
		t.Fatalf("misses %d >= hits %d; read-ahead ineffective", st.Misses, st.Hits)
	}
}

func TestRandomAccessNeverTriggersReadAhead(t *testing.T) {
	p := MustNew(Config{Capacity: 1000, ReadAheadRun: 3, ReadAheadPages: 8})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		pg := uint64(rng.Intn(10000)) * 3 // never consecutive
		if r := p.Access(p.Class("rand"), pg); r.Prefetched > 0 {
			t.Fatal("read-ahead fired on non-sequential access")
		}
	}
}

func TestReadAheadDisabledByDefault(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	for pg := uint64(0); pg < 50; pg++ {
		if r := p.Access(p.Class("scan"), pg); r.Prefetched > 0 {
			t.Fatal("read-ahead fired with ReadAheadRun=0")
		}
	}
}

func TestOnMissHookCountsIO(t *testing.T) {
	p := MustNew(Config{Capacity: 100, ReadAheadRun: 2, ReadAheadPages: 4})
	io := map[string]int{}
	p.OnMiss(func(class string, pages int) { io[class] += pages })
	for pg := uint64(0); pg < 10; pg++ {
		p.Access(p.Class("a"), pg)
	}
	st := p.Stats("a")
	want := int(st.Misses + st.Prefetches)
	if io["a"] != want {
		t.Fatalf("hook counted %d pages, want misses+prefetches = %d", io["a"], want)
	}
}

func TestPartitionedMatchesExclusiveForDisjointClasses(t *testing.T) {
	// Running two classes with disjoint page sets in partitions of size
	// q1,q2 must give each class exactly the hit ratio it would get alone
	// in a pool of its quota — the "exclusive buffer" ideal of Table 1.
	trace := func(seed int64, base uint64, n int) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, 1.4, 1, 199)
		out := make([]uint64, n)
		for i := range out {
			out[i] = base + z.Uint64()
		}
		return out
	}
	ta := trace(1, 0, 5000)
	tb := trace(2, 1_000_000, 5000)

	alone := func(tr []uint64, capacity int) float64 {
		p := MustNew(Config{Capacity: capacity})
		for _, pg := range tr {
			p.Access(p.Class("x"), pg)
		}
		return p.Stats("x").HitRatio()
	}
	wantA := alone(ta, 60)
	wantB := alone(tb, 40)

	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuota("b", 40); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ta); i++ {
		p.Access(p.Class("a"), ta[i])
		p.Access(p.Class("b"), tb[i])
	}
	if got := p.Stats("a").HitRatio(); got != wantA {
		t.Errorf("partitioned a = %.4f, exclusive = %.4f", got, wantA)
	}
	if got := p.Stats("b").HitRatio(); got != wantB {
		t.Errorf("partitioned b = %.4f, exclusive = %.4f", got, wantB)
	}
}

func BenchmarkAccessShared(b *testing.B) {
	p := MustNew(Config{Capacity: 8192})
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(p.Class("a"), z.Uint64())
	}
}
