package tpcw

import (
	"testing"

	"outlierlb/internal/mrc"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
)

func TestNewBuildsAllClasses(t *testing.T) {
	app := New(sim.NewRNG(1), Options{})
	if app.Name != AppName {
		t.Fatalf("app name = %q", app.Name)
	}
	if len(app.Classes) != 14 {
		t.Fatalf("classes = %d, want 14 interactions", len(app.Classes))
	}
	for _, spec := range app.Classes {
		if spec.Pattern == nil {
			t.Errorf("class %v has no pattern", spec.ID)
		}
		if spec.PagesPerQuery <= 0 || spec.CPUPerQuery <= 0 {
			t.Errorf("class %v has empty demand", spec.ID)
		}
	}
}

func TestMixMatchesClasses(t *testing.T) {
	app := New(sim.NewRNG(1), Options{})
	mix := Mix()
	if len(mix) != len(app.Classes) {
		t.Fatalf("mix has %d entries, classes %d", len(mix), len(app.Classes))
	}
	byID := make(map[string]bool)
	for _, spec := range app.Classes {
		byID[spec.ID.Class] = true
	}
	for _, m := range mix {
		if !byID[m.ID.Class] {
			t.Errorf("mix entry %v has no class", m.ID)
		}
		if m.Weight <= 0 {
			t.Errorf("mix entry %v has weight %v", m.ID, m.Weight)
		}
	}
}

func TestWriteFractionsPerMix(t *testing.T) {
	if wf := WriteFraction(Shopping); wf < 0.15 || wf > 0.25 {
		t.Fatalf("shopping write fraction = %.3f, want ≈0.20", wf)
	}
	if wf := WriteFraction(Browsing); wf < 0.02 || wf > 0.08 {
		t.Fatalf("browsing write fraction = %.3f, want ≈0.05", wf)
	}
	if wf := WriteFraction(Ordering); wf < 0.40 || wf > 0.60 {
		t.Fatalf("ordering write fraction = %.3f, want ≈0.50", wf)
	}
}

func TestMixForCoversAllClasses(t *testing.T) {
	for _, kind := range []MixKind{Shopping, Browsing, Ordering} {
		mix := MixFor(kind)
		if len(mix) != 14 {
			t.Fatalf("mix %v has %d entries", kind, len(mix))
		}
		for _, e := range mix {
			if e.Weight <= 0 {
				t.Fatalf("mix %v: %v weight %v", kind, e.ID, e.Weight)
			}
		}
	}
}

func TestClassNames(t *testing.T) {
	names := ClassNames()
	if len(names) != 14 || names[2] != BestSellerClass {
		t.Fatalf("names = %v", names)
	}
}

func TestIndependentGeneratorStreams(t *testing.T) {
	rng := sim.NewRNG(9)
	a := New(rng, Options{})
	b := New(rng, Options{})
	// Drawing from a's BestSeller must not disturb b's BestSeller: both
	// have private generator state.
	var specA, specB *int
	_ = specA
	_ = specB
	var genA, genB trace.Generator
	for i := range a.Classes {
		if a.Classes[i].ID.Class == BestSellerClass {
			genA = a.Classes[i].Pattern
		}
	}
	for i := range b.Classes {
		if b.Classes[i].ID.Class == BestSellerClass {
			genB = b.Classes[i].Pattern
		}
	}
	if genA == genB {
		t.Fatal("two applications share a generator")
	}
}

// bestSellerParams computes MRC parameters for the BestSeller pattern.
func bestSellerParams(t *testing.T, opts Options, accesses int) mrc.Params {
	t.Helper()
	app := New(sim.NewRNG(42), opts)
	var gen trace.Generator
	for _, spec := range app.Classes {
		if spec.ID.Class == BestSellerClass {
			gen = spec.Pattern
		}
	}
	pages := trace.Generate(gen, accesses)
	curve := mrc.Compute(pages)
	return curve.ParamsFor(8192, mrc.DefaultThreshold)
}

func TestBestSellerIndexedMemoryNeed(t *testing.T) {
	// The paper reports the indexed BestSeller needs ≈6982 pages to meet
	// its acceptable miss ratio — most of an 8192-page pool.
	p := bestSellerParams(t, Options{}, 120000)
	if p.AcceptableMemory < 5500 || p.AcceptableMemory > 8192 {
		t.Fatalf("indexed BestSeller acceptable memory = %d, want ≈7000 (paper: 6982)",
			p.AcceptableMemory)
	}
}

func TestBestSellerUnindexedFlatterAndSmaller(t *testing.T) {
	// After dropping O_DATE the curve flattens and the quota needed drops
	// (paper: 3695 < 6982).
	indexed := bestSellerParams(t, Options{}, 120000)
	dropped := bestSellerParams(t, Options{DropODateIndex: true}, 120000)
	if dropped.AcceptableMemory >= indexed.AcceptableMemory {
		t.Fatalf("unindexed acceptable %d not smaller than indexed %d",
			dropped.AcceptableMemory, indexed.AcceptableMemory)
	}
	// Flatter: the unindexed ideal miss ratio is much worse (the scan
	// component can never be cached in server memory).
	if dropped.IdealMissRatio <= indexed.IdealMissRatio {
		t.Fatalf("unindexed ideal MR %.3f not above indexed %.3f",
			dropped.IdealMissRatio, indexed.IdealMissRatio)
	}
}

func TestBestSellerUnindexedAccessesMorePages(t *testing.T) {
	idx := New(sim.NewRNG(1), Options{})
	drop := New(sim.NewRNG(1), Options{DropODateIndex: true})
	var pi, pd int
	for _, spec := range idx.Classes {
		if spec.ID.Class == BestSellerClass {
			pi = spec.PagesPerQuery
		}
	}
	for _, spec := range drop.Classes {
		if spec.ID.Class == BestSellerClass {
			pd = spec.PagesPerQuery
		}
	}
	if pd <= 2*pi {
		t.Fatalf("unindexed pages/query %d not ≫ indexed %d", pd, pi)
	}
}

func TestUnindexedScanHasSequentialRuns(t *testing.T) {
	// Read-ahead in the pool requires sequential runs in the reference
	// stream; the sticky mixture must preserve them.
	app := New(sim.NewRNG(5), Options{DropODateIndex: true})
	var gen trace.Generator
	for _, spec := range app.Classes {
		if spec.ID.Class == BestSellerClass {
			gen = spec.Pattern
		}
	}
	pages := trace.Generate(gen, 20000)
	run, maxRun := 1, 1
	for i := 1; i < len(pages); i++ {
		if pages[i] == pages[i-1]+1 {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	if maxRun < 16 {
		t.Fatalf("longest sequential run = %d, want ≥16 for read-ahead", maxRun)
	}
}
