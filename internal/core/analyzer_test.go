package core

import (
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
)

// TestRecomputeMRCWrappedWindow pins RecomputeMRC's window read against
// the whole-window copy it replaced: once the class's access ring has
// wrapped, the curve and parameters equal mrc.Compute over the last
// samples entries of Engine.Window.
func TestRecomputeMRCWrappedWindow(t *testing.T) {
	srv := server.MustNew(server.Config{
		Name: "srv1", Cores: 2, MemoryPages: 512,
		Disk: storage.Params{Seek: 0.004, PerPage: 0.0001},
	})
	eng := engine.MustNew(engine.Config{Name: "e1", Pool: bufferpool.Config{Capacity: 512}, WindowSize: 1000}, srv)
	id := metrics.ClassID{App: "app", Class: "q"}
	if err := eng.Register(engine.ClassSpec{
		ID: id, PagesPerQuery: 7, Pattern: trace.NewZipfSet(sim.NewRNG(3), 0, 800, 1.1),
	}); err != nil {
		t.Fatal(err)
	}
	a := NewLogAnalyzer(eng)
	const samples = 600
	a.SetSamples(samples)
	now := 0.0
	var issued int64 // page accesses so far: 7 per query
	runUntil := func(total int64) {
		for issued < total {
			if _, err := eng.Execute(now, id); err != nil {
				t.Fatal(err)
			}
			issued += 7
			now++
		}
	}
	runUntil(samples - 7)
	if _, _, ok := a.RecomputeMRC(id, 512, 0.02); ok {
		t.Fatal("RecomputeMRC succeeded on a window shorter than the sample count")
	}
	// 7 pages per query never lands the ring's head on a wrap boundary,
	// so each check reads a tail split across the ring's end.
	for _, total := range []int64{2500, 2600, 4000} {
		runUntil(total)
		win := eng.Window(id)
		want := mrc.Compute(win[len(win)-samples:])
		got, params, ok := a.RecomputeMRC(id, 512, 0.02)
		if !ok {
			t.Fatalf("total %d: RecomputeMRC reported too few samples", total)
		}
		if got.MaxMemory() != want.MaxMemory() || got.Total() != want.Total() {
			t.Fatalf("total %d: MaxMemory/Total %d/%d, want %d/%d", total, got.MaxMemory(), got.Total(), want.MaxMemory(), want.Total())
		}
		for m := 0; m <= want.MaxMemory(); m++ {
			if got.MissRatio(m) != want.MissRatio(m) {
				t.Fatalf("total %d: MR(%d) = %v, want %v", total, m, got.MissRatio(m), want.MissRatio(m))
			}
		}
		if wp := want.ParamsFor(512, 0.02); params != wp {
			t.Fatalf("total %d: params %+v, want %+v", total, params, wp)
		}
	}
}
