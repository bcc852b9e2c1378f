package bufferpool

import (
	"math/rand"
	"testing"
)

// warmHot fills the pool with a hot set and touches it twice so every
// page is promoted into the young sublist.
func warmHot(p *Pool, class string, n uint64) {
	for round := 0; round < 2; round++ {
		for pg := uint64(0); pg < n; pg++ {
			p.Access(p.Class(class), pg)
		}
	}
}

func TestMidpointScanResistance(t *testing.T) {
	// A one-time scan three times the pool size must not destroy a hot
	// working set under midpoint insertion, while classic LRU loses it
	// completely.
	run := func(midpoint float64) float64 {
		p := MustNew(Config{Capacity: 1000, MidpointFraction: midpoint})
		warmHot(p, "hot", 400)
		for pg := uint64(100000); pg < 103000; pg++ {
			p.Access(p.Class("scan"), pg)
		}
		p.ResetStats()
		for pg := uint64(0); pg < 400; pg++ {
			p.Access(p.Class("hot"), pg)
		}
		return p.Stats("hot").HitRatio()
	}
	classic := run(0)
	midpoint := run(0.375)
	if classic > 0.1 {
		t.Fatalf("classic LRU survived the scan with hit ratio %.2f", classic)
	}
	if midpoint < 0.9 {
		t.Fatalf("midpoint insertion lost the hot set: hit ratio %.2f", midpoint)
	}
}

func TestMidpointPromotionOnSecondAccess(t *testing.T) {
	p := MustNew(Config{Capacity: 100, MidpointFraction: 0.5})
	// First access inserts into the old sublist; page is resident.
	p.Access(p.Class("a"), 1)
	if !p.Contains("a", 1) {
		t.Fatal("page not resident after first access")
	}
	// Second access promotes it. Then flooding the old sublist with new
	// pages must not evict the promoted page.
	p.Access(p.Class("a"), 1)
	for pg := uint64(1000); pg < 1080; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if !p.Contains("a", 1) {
		t.Fatal("promoted page evicted by old-sublist churn")
	}
}

func TestMidpointUnpromotedPagesEvictFirst(t *testing.T) {
	p := MustNew(Config{Capacity: 10, MidpointFraction: 0.5})
	// Promote pages 1..5 into young.
	for pg := uint64(1); pg <= 5; pg++ {
		p.Access(p.Class("a"), pg)
		p.Access(p.Class("a"), pg)
	}
	// Stream 20 once-accessed pages through: they churn the old sublist.
	for pg := uint64(100); pg < 120; pg++ {
		p.Access(p.Class("a"), pg)
	}
	for pg := uint64(1); pg <= 5; pg++ {
		if !p.Contains("a", pg) {
			t.Fatalf("young page %d evicted before old-sublist churn", pg)
		}
	}
}

func TestMidpointOccupancyNeverExceedsCapacity(t *testing.T) {
	p := MustNew(Config{Capacity: 50, MidpointFraction: 0.375})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		p.Access(p.Class("a"), uint64(rng.Intn(500)))
		if p.Resident() > 50 {
			t.Fatalf("resident %d exceeds capacity at access %d", p.Resident(), i)
		}
	}
}

func TestMidpointWithQuotaPartitions(t *testing.T) {
	p := MustNew(Config{Capacity: 200, MidpointFraction: 0.375})
	if err := p.SetQuota("q", 80); err != nil {
		t.Fatal(err)
	}
	// Quota'd partition inherits the midpoint policy and its capacity.
	for pg := uint64(0); pg < 1000; pg++ {
		p.Access(p.Class("q"), pg)
	}
	resident := 0
	for pg := uint64(0); pg < 1000; pg++ {
		if p.Contains("q", pg) {
			resident++
		}
	}
	if resident > 80 {
		t.Fatalf("partition holds %d pages, quota 80", resident)
	}
	// Hot pages inside the partition survive its own scans.
	warmHot(p, "q", 30)
	for pg := uint64(5000); pg < 5300; pg++ {
		p.Access(p.Class("q"), pg)
	}
	p.ResetStats()
	for pg := uint64(0); pg < 30; pg++ {
		p.Access(p.Class("q"), pg)
	}
	if hr := p.Stats("q").HitRatio(); hr < 0.8 {
		t.Fatalf("hot set in midpoint partition lost: hit ratio %.2f", hr)
	}
}

func TestMidpointFractionClamped(t *testing.T) {
	p := MustNew(Config{Capacity: 10, MidpointFraction: 3.0})
	for pg := uint64(0); pg < 100; pg++ {
		p.Access(p.Class("a"), pg)
	}
	if p.Resident() > 10 {
		t.Fatalf("resident %d with clamped fraction", p.Resident())
	}
}

func TestMidpointReadAheadIntoOldSublist(t *testing.T) {
	// Prefetched pages must not displace the young sublist.
	p := MustNew(Config{Capacity: 200, MidpointFraction: 0.375,
		ReadAheadRun: 4, ReadAheadPages: 32})
	warmHot(p, "hot", 100)
	for pg := uint64(10000); pg < 10600; pg++ {
		p.Access(p.Class("scan"), pg)
	}
	p.ResetStats()
	for pg := uint64(0); pg < 100; pg++ {
		p.Access(p.Class("hot"), pg)
	}
	if hr := p.Stats("hot").HitRatio(); hr < 0.8 {
		t.Fatalf("read-ahead churn displaced hot set: hit ratio %.2f", hr)
	}
}
