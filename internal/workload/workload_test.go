package workload

import (
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/sla"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
)

var browse = metrics.ClassID{App: "shop", Class: "Browse"}

func testSetup(t *testing.T) (*sim.Engine, *cluster.Scheduler) {
	t.Helper()
	eng := sim.NewEngine(7)
	srv := server.MustNew(server.Config{Name: "s1", Cores: 4, MemoryPages: 10000,
		Disk: storage.Params{Seek: 0.002, PerPage: 0.0001}})
	dbe := engine.MustNew(engine.Config{Name: "e1", Pool: bufferpool.Config{Capacity: 5000}}, srv)
	app := &cluster.Application{
		Name: "shop",
		SLA:  sla.Default(),
		Classes: []engine.ClassSpec{
			{ID: browse, CPUPerQuery: 0.005, PagesPerQuery: 3,
				Pattern: &trace.SequentialScan{Span: 500}},
		},
	}
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddReplica(cluster.NewReplica(dbe, srv)); err != nil {
		t.Fatal(err)
	}
	return eng, sched
}

func TestLoadFunctions(t *testing.T) {
	c := Constant(5)
	if c(0) != 5 || c(1e6) != 5 {
		t.Error("Constant varies")
	}
	s := Sinusoid(100, 50, 200)
	if s(0) != 100 {
		t.Errorf("sinusoid at t=0 = %d, want 100", s(0))
	}
	if got := s(50); got != 150 { // quarter period: peak
		t.Errorf("sinusoid peak = %d, want 150", got)
	}
	if got := s(150); got != 50 { // three-quarter: trough
		t.Errorf("sinusoid trough = %d, want 50", got)
	}
	neg := Sinusoid(10, 100, 200)
	if neg(150) != 0 {
		t.Error("sinusoid went negative")
	}
	st := Step(2, 8, 100)
	if st(99) != 2 || st(100) != 8 {
		t.Error("Step wrong")
	}
}

// TestStepPulseEdges pins the boundary semantics: Step is closed on the
// right at t0 (the new population applies at exactly t0), Pulse is the
// half-open window [t0, t1) — on at exactly t0, off at exactly t1 — so
// adjacent pulses sharing an endpoint never overlap or leave a gap.
func TestStepPulseEdges(t *testing.T) {
	st := Step(2, 8, 100)
	for _, tc := range []struct {
		t    float64
		want int
	}{
		{99.999999, 2}, {100, 8}, {100.000001, 8},
	} {
		if got := st(tc.t); got != tc.want {
			t.Errorf("Step(2,8,100)(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	p := Pulse(3, 30, 100, 200)
	for _, tc := range []struct {
		t    float64
		want int
	}{
		{0, 3}, {99.999999, 3},
		{100, 30}, // left edge: inside
		{150, 30},
		{199.999999, 30},
		{200, 3}, // right edge: outside
		{200.000001, 3},
	} {
		if got := p(tc.t); got != tc.want {
			t.Errorf("Pulse(3,30,100,200)(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	// Back-to-back pulses over a shared endpoint: exactly one is on at
	// the seam.
	a, b := Pulse(0, 1, 100, 200), Pulse(0, 1, 200, 300)
	if a(200)+b(200) != 1 {
		t.Errorf("adjacent pulses at shared endpoint: %d + %d, want exactly 1 on", a(200), b(200))
	}
	// A degenerate window never fires.
	if d := Pulse(5, 50, 300, 300); d(300) != 5 {
		t.Error("degenerate pulse (t1 == t0) fired")
	}
}

// TestEmulatorOnArrivalHook checks the hook sees every submission — one
// call per completed interaction plus one per shed retry — at the
// submitting virtual time, without perturbing the run.
func TestEmulatorOnArrivalHook(t *testing.T) {
	eng, sched := testSetup(t)
	type arrival struct {
		t     float64
		class metrics.ClassID
	}
	var seen []arrival
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 1}},
		ThinkTime: 0.5,
		Load:      Constant(10),
		OnArrival: func(tm float64, class metrics.ClassID) { seen = append(seen, arrival{tm, class}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(60)
	em.Stop()
	if int64(len(seen)) != em.Interactions()+em.Shed() {
		t.Fatalf("hook saw %d arrivals, want interactions+shed = %d",
			len(seen), em.Interactions()+em.Shed())
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].t < seen[i-1].t {
			t.Fatalf("arrival %d at t=%v before predecessor at t=%v", i, seen[i].t, seen[i-1].t)
		}
	}
}

func TestNewEmulatorValidation(t *testing.T) {
	eng, sched := testSetup(t)
	if _, err := NewEmulator(nil, sched, Config{Mix: []MixEntry{{ID: browse, Weight: 1}}}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewEmulator(eng, nil, Config{Mix: []MixEntry{{ID: browse, Weight: 1}}}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewEmulator(eng, sched, Config{}); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := NewEmulator(eng, sched, Config{Mix: []MixEntry{{ID: browse, Weight: 0}}}); err == nil {
		t.Fatal("zero-weight mix accepted")
	}
}

func TestEmulatorClosedLoop(t *testing.T) {
	eng, sched := testSetup(t)
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 1}},
		ThinkTime: 0.5,
		Load:      Constant(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(60)
	em.Stop()
	if em.Interactions() == 0 {
		t.Fatal("no interactions completed")
	}
	if len(em.Errors()) != 0 {
		t.Fatalf("client errors: %v", em.Errors()[0])
	}
	// 10 clients, ~0.5s think + small latency → roughly 15-20
	// interactions/s over 60s.
	rate := float64(em.Interactions()) / 60
	if rate < 5 || rate > 25 {
		t.Fatalf("interaction rate = %.1f/s, outside sane closed-loop range", rate)
	}
}

func TestEmulatorTracksLoadFunction(t *testing.T) {
	eng, sched := testSetup(t)
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 1}},
		ThinkTime: 0.2,
		Load:      Step(4, 12, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(25)
	if em.Running() != 4 {
		t.Fatalf("population before step = %d, want 4", em.Running())
	}
	eng.RunUntil(60)
	if em.Running() != 12 {
		t.Fatalf("population after step = %d, want 12", em.Running())
	}
	// Shrink back down: sessions end at their next decision point.
	em2cfg := em.cfg
	_ = em2cfg
	em.Stop()
}

func TestEmulatorShrinksPopulation(t *testing.T) {
	eng, sched := testSetup(t)
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 1}},
		ThinkTime: 0.2,
		Load:      Step(10, 2, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(29)
	if em.Running() != 10 {
		t.Fatalf("population = %d, want 10", em.Running())
	}
	eng.RunUntil(60)
	if em.Running() != 2 {
		t.Fatalf("population after shrink = %d, want 2", em.Running())
	}
}

func TestEmulatorStopEndsAllSessions(t *testing.T) {
	eng, sched := testSetup(t)
	em, err := NewEmulator(eng, sched, Config{
		Mix:  []MixEntry{{ID: browse, Weight: 1}},
		Load: Constant(5), ThinkTime: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(10)
	em.Stop()
	eng.Run() // drain every pending event
	if eng.Pending() != 0 {
		t.Fatalf("events still pending after stop: %d", eng.Pending())
	}
}

func TestEmulatorDeterminism(t *testing.T) {
	run := func() int64 {
		eng, sched := testSetup(t)
		em, err := NewEmulator(eng, sched, Config{
			Mix:       []MixEntry{{ID: browse, Weight: 1}},
			ThinkTime: 0.3, ThinkNoise: 0.5,
			Load: Sinusoid(8, 4, 40),
		})
		if err != nil {
			t.Fatal(err)
		}
		em.Start()
		eng.RunUntil(120)
		em.Stop()
		return em.Interactions()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d interactions", a, b)
	}
}

func TestMixSelectionRespectsWeights(t *testing.T) {
	eng := sim.NewEngine(3)
	srv := server.MustNew(server.Config{Name: "s1", Cores: 8, MemoryPages: 10000})
	dbe := engine.MustNew(engine.Config{Name: "e1", Pool: bufferpool.Config{Capacity: 5000}}, srv)
	heavy := metrics.ClassID{App: "shop", Class: "Heavy"}
	app := &cluster.Application{
		Name: "shop", SLA: sla.Default(),
		Classes: []engine.ClassSpec{
			{ID: browse, CPUPerQuery: 0.001},
			{ID: heavy, CPUPerQuery: 0.001},
		},
	}
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddReplica(cluster.NewReplica(dbe, srv)); err != nil {
		t.Fatal(err)
	}
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 9}, {ID: heavy, Weight: 1}},
		ThinkTime: 0.05,
		Load:      Constant(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(120)
	em.Stop()
	snap := dbe.Snapshot(120, false)
	nb := snap[browse].Vector.Get(metrics.Throughput)
	nh := snap[heavy].Vector.Get(metrics.Throughput)
	if nh == 0 {
		t.Fatal("low-weight class never drawn")
	}
	if ratio := nb / nh; ratio < 6 || ratio > 13 {
		t.Fatalf("mix ratio = %.1f, want ≈9", ratio)
	}
}
