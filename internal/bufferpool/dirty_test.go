package bufferpool

import "testing"

func TestWriteMarksDirty(t *testing.T) {
	p := MustNew(Config{Capacity: 10})
	p.Write(p.Class("w"), 1)
	if p.DirtyPages() != 1 {
		t.Fatalf("dirty = %d, want 1", p.DirtyPages())
	}
	// Re-reading does not clean the page.
	p.Access(p.Class("w"), 1)
	if p.DirtyPages() != 1 {
		t.Fatal("read cleaned a dirty page")
	}
	// Writing an already-dirty page stays one dirty page.
	p.Write(p.Class("w"), 1)
	if p.DirtyPages() != 1 {
		t.Fatal("double write double-counted")
	}
}

func TestEvictingDirtyPageFlushes(t *testing.T) {
	p := MustNew(Config{Capacity: 2})
	flushes := map[string]int{}
	p.OnFlush(func(class string, pages int) { flushes[class] += pages })
	p.Write(p.Class("w"), 1)
	p.Access(p.Class("r"), 2)
	p.Access(p.Class("r"), 3) // evicts page 1 (dirty, owned by w)
	if flushes["w"] != 1 {
		t.Fatalf("flush hook saw %v", flushes)
	}
	if p.Stats("w").Flushes != 1 {
		t.Fatalf("Flushes stat = %d", p.Stats("w").Flushes)
	}
	// Clean evictions do not flush.
	p.Access(p.Class("r"), 4)
	if flushes["r"] != 0 {
		t.Fatal("clean eviction flushed")
	}
}

func TestFlushAllCleansEverything(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	for pg := uint64(0); pg < 20; pg++ {
		p.Write(p.Class("w"), pg)
	}
	total := 0
	p.OnFlush(func(_ string, n int) { total += n })
	if got := p.FlushAll(); got != 20 {
		t.Fatalf("FlushAll = %d", got)
	}
	if total != 20 {
		t.Fatalf("hook total = %d", total)
	}
	if p.DirtyPages() != 0 {
		t.Fatal("pages still dirty after FlushAll")
	}
	// Pages remain resident.
	if !p.Contains("w", 5) {
		t.Fatal("FlushAll evicted pages")
	}
	// Second flush is a no-op.
	if got := p.FlushAll(); got != 0 {
		t.Fatalf("second FlushAll = %d", got)
	}
}

func TestQuotaShrinkFlushesDirtyVictims(t *testing.T) {
	p := MustNew(Config{Capacity: 100})
	if err := p.SetQuota("w", 50); err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < 50; pg++ {
		p.Write(p.Class("w"), pg)
	}
	flushed := 0
	p.OnFlush(func(_ string, n int) { flushed += n })
	if err := p.SetQuota("w", 10); err != nil {
		t.Fatal(err)
	}
	if flushed != 40 {
		t.Fatalf("shrink flushed %d pages, want 40", flushed)
	}
}

func TestDirtyWithMidpointInsertion(t *testing.T) {
	p := MustNew(Config{Capacity: 20, MidpointFraction: 0.375})
	flushed := 0
	p.OnFlush(func(_ string, n int) { flushed += n })
	for pg := uint64(0); pg < 100; pg++ {
		p.Write(p.Class("w"), pg)
	}
	if flushed != 100-p.Resident() {
		t.Fatalf("flushed %d, want %d (every evicted page was dirty)", flushed, 100-p.Resident())
	}
}
