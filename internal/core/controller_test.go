package core

import (
	"regexp"
	"strconv"
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
	"outlierlb/internal/workload"
)

// testbed bundles a small cluster for controller scenarios.
type testbed struct {
	sim *sim.Engine
	mgr *cluster.Manager
	ctl *Controller
}

func newTestbed(t testing.TB, servers int, poolPages int, cfg Config) *testbed {
	t.Helper()
	if cfg.MRCSampleCount == 0 {
		// Test scenarios run short streams; a small fixed sample keeps
		// MRC-based diagnosis available.
		cfg.MRCSampleCount = 2048
	}
	s := sim.NewEngine(11)
	mgr := cluster.NewManager()
	mgr.PoolConfig = bufferpool.Config{Capacity: poolPages, ReadAheadRun: 4, ReadAheadPages: 32}
	for i := 0; i < servers; i++ {
		mgr.AddServer(server.MustNew(server.Config{
			Name: "srv" + string(rune('1'+i)), Cores: 4, MemoryPages: poolPages,
			Disk: storage.Params{Seek: 0.004, PerPage: 0.0001},
		}))
	}
	ctl, err := NewController(s, mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{sim: s, mgr: mgr, ctl: ctl}
}

// cpuApp builds an application whose queries are pure CPU.
func cpuApp(name string, classes int, cpuPerQuery float64) *cluster.Application {
	app := &cluster.Application{Name: name, SLA: sla.Default()}
	for i := 0; i < classes; i++ {
		app.Classes = append(app.Classes, engine.ClassSpec{
			ID:          metrics.ClassID{App: name, Class: "q" + string(rune('a'+i))},
			CPUPerQuery: cpuPerQuery,
		})
	}
	return app
}

func startApp(t testing.TB, tb *testbed, app *cluster.Application) *cluster.Scheduler {
	t.Helper()
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.mgr.Register(sched); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		t.Fatal(err)
	}
	return sched
}

func mixFor(app *cluster.Application) []workload.MixEntry {
	var mix []workload.MixEntry
	for _, spec := range app.Classes {
		mix = append(mix, workload.MixEntry{ID: spec.ID, Weight: 1})
	}
	return mix
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, cluster.NewManager(), Config{}); err == nil {
		t.Fatal("nil sim accepted")
	}
	if _, err := NewController(sim.NewEngine(1), nil, Config{}); err == nil {
		t.Fatal("nil manager accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fill()
	if cfg.Interval != 10 || cfg.Fences.Inner != 1.5 || cfg.TopK != 3 ||
		cfg.CPUSaturation != 0.85 || cfg.FallbackAfter != 4 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestStableIntervalsRecordSignatures(t *testing.T) {
	tb := newTestbed(t, 1, 2000, Config{Interval: 10})
	app := cpuApp("calm", 6, 0.005)
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.5, Load: workload.Constant(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	em.Start()
	tb.sim.RunUntil(60)
	em.Stop()

	sig, ok := tb.ctl.Signatures().Lookup("calm", "srv1")
	if !ok {
		t.Fatal("no signature recorded for stable app")
	}
	if len(sig.Metrics) == 0 {
		t.Fatal("signature has no metric vectors")
	}
	for _, a := range tb.ctl.Actions() {
		t.Errorf("stable app triggered action: %v", a)
	}
	if len(tb.ctl.AllocationHistory()) == 0 {
		t.Fatal("no allocation samples")
	}
}

func TestCPUSaturationProvisionsReplicas(t *testing.T) {
	tb := newTestbed(t, 3, 2000, Config{Interval: 10})
	// 150ms CPU per query: ~27 concurrent clients with 0.1s think time
	// swamp 4 cores.
	app := cpuApp("busy", 4, 0.15)
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.1, Load: workload.Constant(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	em.Start()
	tb.sim.RunUntil(200)
	em.Stop()

	provisions := 0
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionProvision {
			provisions++
		}
	}
	if provisions == 0 {
		t.Fatalf("CPU saturation never provisioned; actions: %v", tb.ctl.Actions())
	}
	if len(sched.Replicas()) < 2 {
		t.Fatalf("replicas = %d, want ≥ 2", len(sched.Replicas()))
	}
	// Latency must recover below the SLA by the end.
	hist := sched.Tracker().History()
	last := hist[len(hist)-1]
	if !last.Met {
		t.Fatalf("final interval still violates SLA: %+v", last)
	}
}

func TestProvisioningExhaustionRecorded(t *testing.T) {
	tb := newTestbed(t, 1, 2000, Config{Interval: 10})
	app := cpuApp("busy", 4, 0.2)
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.1, Load: workload.Constant(80),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sched
	tb.ctl.Start()
	em.Start()
	tb.sim.RunUntil(60)
	em.Stop()
	exhausted := false
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionExhausted {
			exhausted = true
		}
	}
	if !exhausted {
		t.Fatalf("pool exhaustion not recorded; actions: %v", tb.ctl.Actions())
	}
}

// scanApp builds an app with several cached point classes and one class
// whose pattern can be swapped (the BestSeller analogue). Its SLA is
// proportional to its very fast baseline (≈7 ms average when healthy).
func scanApp(name string, rng *sim.RNG, hotSpan uint64) *cluster.Application {
	app := &cluster.Application{Name: name, SLA: sla.SLA{MaxAvgLatency: 0.2}}
	for i := 0; i < 5; i++ {
		app.Classes = append(app.Classes, engine.ClassSpec{
			ID:            metrics.ClassID{App: name, Class: "point" + string(rune('a'+i))},
			CPUPerQuery:   0.004,
			PagesPerQuery: 4,
			Pattern:       trace.NewZipfSet(rng.Fork(), uint64(i)*10000, 600, 1.5),
		})
	}
	app.Classes = append(app.Classes, engine.ClassSpec{
		ID:            metrics.ClassID{App: name, Class: "best"},
		CPUPerQuery:   0.02,
		PagesPerQuery: 60,
		Pattern:       trace.NewUniformSet(rng.Fork(), 100000, hotSpan),
	})
	return app
}

func TestIndexDropDiagnosedAndQuotaEnforced(t *testing.T) {
	tb := newTestbed(t, 2, 4096, Config{Interval: 10, MRCChangeFactor: 1.25})
	rng := sim.NewRNG(3)
	app := scanApp("shop", rng, 3000)
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.4, Load: workload.Constant(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	em.Start()
	// Warm up and reach stable state.
	tb.sim.RunUntil(120)
	sig, ok := tb.ctl.Signatures().Lookup("shop", "srv1")
	if !ok || !sig.HasMRC(metrics.ClassID{App: "shop", Class: "best"}) {
		t.Fatal("no stable signature/MRC before the change")
	}

	// Index drop: "best" degrades to a scan-plus-hot mixture with far
	// more page accesses. The flood of misses also slows everyone else.
	scan := &trace.SequentialScan{Base: 100000, Span: 60000}
	hot := trace.NewUniformSet(rng.Fork(), 100000, 1200)
	mixGen, err := trace.NewMixture(rng.Fork(), []trace.Generator{scan, hot},
		[]float64{0.7, 0.3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.UpdateClass(engine.ClassSpec{
		ID:            metrics.ClassID{App: "shop", Class: "best"},
		CPUPerQuery:   0.05,
		PagesPerQuery: 500,
		Pattern:       mixGen,
	}); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(400)
	em.Stop()

	var sawQuotaOrMove bool
	for _, a := range tb.ctl.Actions() {
		if (a.Kind == ActionQuota || a.Kind == ActionReschedule) && a.App == "shop" {
			sawQuotaOrMove = true
		}
	}
	if !sawQuotaOrMove {
		t.Fatalf("index drop produced no retuning action; actions: %v", tb.ctl.Actions())
	}
}

// memoryHog builds a second application whose one class wants nearly the
// whole pool (the SIBR analogue).
func memoryHog(name string, rng *sim.RNG, span uint64) *cluster.Application {
	hot := trace.NewUniformSet(rng.Fork(), 500000, span)
	scan := &trace.SequentialScan{Base: 500000, Span: span}
	gen, err := trace.NewMixture(rng.Fork(), []trace.Generator{hot, scan}, []float64{0.6, 0.4}, 48)
	if err != nil {
		panic(err)
	}
	return &cluster.Application{
		Name: name, SLA: sla.SLA{MaxAvgLatency: 0.5},
		Classes: []engine.ClassSpec{
			{ID: metrics.ClassID{App: name, Class: "hog"}, CPUPerQuery: 0.02,
				PagesPerQuery: 200, Pattern: gen},
			{ID: metrics.ClassID{App: name, Class: "tiny"}, CPUPerQuery: 0.003,
				PagesPerQuery: 2, Pattern: trace.NewZipfSet(rng.Fork(), 600000, 200, 1.6)},
		},
	}
}

func TestSharedPoolInterferenceReschedulesHog(t *testing.T) {
	tb := newTestbed(t, 2, 4096, Config{Interval: 10})
	rng := sim.NewRNG(5)
	victim := scanApp("shop", rng, 3000)
	vsched := startApp(t, tb, victim)
	vem, err := workload.NewEmulator(tb.sim, vsched, workload.Config{
		Mix: mixFor(victim), ThinkTime: 0.4, Load: workload.Constant(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	vem.Start()
	tb.sim.RunUntil(120) // victim reaches stable state alone

	// Second app joins INSIDE the same DBMS (shared buffer pool).
	hog := memoryHog("aux", rng, 3800)
	hsched, err := cluster.NewScheduler(hog)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.mgr.Register(hsched); err != nil {
		t.Fatal(err)
	}
	if err := tb.mgr.Attach("aux", vsched.Replicas()[0]); err != nil {
		t.Fatal(err)
	}
	hem, err := workload.NewEmulator(tb.sim, hsched, workload.Config{
		Mix: mixFor(hog), ThinkTime: 0.3, Load: workload.Constant(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	hem.Start()
	tb.sim.RunUntil(500)
	vem.Stop()
	hem.Stop()

	var acted bool
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionReschedule || a.Kind == ActionQuota {
			acted = true
		}
	}
	if !acted {
		t.Fatalf("no retuning action after consolidation; actions: %v", tb.ctl.Actions())
	}
}

func TestIOHeuristicMovesTopIOClass(t *testing.T) {
	tb := newTestbed(t, 2, 4096, Config{Interval: 10})
	rng := sim.NewRNG(7)
	app := memoryHog("io", rng, 16000) // cannot be cached: constant I/O
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.3, Load: workload.Constant(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	tb.sim.RunUntil(60)
	srv := sched.Replicas()[0].Server()
	moved := tb.ctl.ApplyIOHeuristic(tb.sim.Now().Seconds(), srv)
	if !moved {
		t.Fatal("I/O heuristic did not move any class")
	}
	em.Stop()
	var found bool
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionIOMove && a.Class == "hog" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected hog (top I/O) to move; actions: %v", tb.ctl.Actions())
	}
	// The class now runs on a different server.
	pl := sched.Placement(metrics.ClassID{App: "io", Class: "hog"})
	if len(pl) != 1 || pl[0].Server() == srv {
		t.Fatal("hog still placed on the contended server")
	}
}

func TestCoarseFallbackIsolatesApp(t *testing.T) {
	tb := newTestbed(t, 2, 1024, Config{Interval: 10, FallbackAfter: 2})
	rng := sim.NewRNG(9)
	// An app that persistently violates with nothing diagnosable: pure
	// CPU load just below the saturation threshold cannot be helped by
	// quotas; force fallback via repeated violations.
	app := &cluster.Application{
		Name: "stuck", SLA: sla.SLA{MaxAvgLatency: 0.001}, // unmeetable
		Classes: []engine.ClassSpec{
			{ID: metrics.ClassID{App: "stuck", Class: "q"}, CPUPerQuery: 0.01,
				PagesPerQuery: 2, Pattern: trace.NewZipfSet(rng, 0, 100, 1.5)},
		},
	}
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.2, Load: workload.Constant(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	em.Start()
	tb.sim.RunUntil(100)
	em.Stop()
	var fellBack bool
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionFallback && a.App == "stuck" {
			fellBack = true
		}
	}
	if !fellBack {
		t.Fatalf("persistent violation never fell back; actions: %v", tb.ctl.Actions())
	}
}

func TestQuotaMaintenanceDissolvesRevertedQuota(t *testing.T) {
	tb := newTestbed(t, 2, 4096, Config{Interval: 10, MaintainEvery: 3})
	rng := sim.NewRNG(3)
	app := scanApp("shop", rng, 3000)
	sched := startApp(t, tb, app)
	em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
		Mix: mixFor(app), ThinkTime: 0.4, Load: workload.Constant(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Start()
	em.Start()
	tb.sim.RunUntil(120)

	// Degrade "best" (index drop analogue), let the controller contain
	// it with a quota.
	scan := &trace.SequentialScan{Base: 100000, Span: 60000}
	hot := trace.NewUniformSet(rng.Fork(), 100000, 1200)
	mixGen, err := trace.NewMixture(rng.Fork(), []trace.Generator{scan, hot}, []float64{0.7, 0.3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	bestID := metrics.ClassID{App: "shop", Class: "best"}
	if err := sched.UpdateClass(engine.ClassSpec{
		ID: bestID, CPUPerQuery: 0.05, PagesPerQuery: 500, Pattern: mixGen,
	}); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(400)
	eng := sched.Replicas()[0].Engine()
	if len(eng.Pool().Quotas()) == 0 {
		// The controller may have rescheduled the class, or isolated the
		// application and contained the class on the new server; only a
		// quota on this engine exercises its maintenance, so force one.
		if err := eng.Pool().SetQuota(bestID.String(), 1200); err != nil {
			t.Fatal(err)
		}
	}

	// Restore the index: "best" reverts to its small indexed working
	// set. By now the controller has isolated the application on a fresh
	// server and contained "best" there, so this engine no longer serves
	// the class and maintenance dissolves its quota as "class no longer
	// placed here". TestQuotaMaintenanceResizesOrDissolves covers a cage
	// the class outgrew and one it never needed.
	if err := sched.UpdateClass(engine.ClassSpec{
		ID: bestID, CPUPerQuery: 0.02, PagesPerQuery: 60,
		Pattern: trace.NewUniformSet(rng.Fork(), 100000, 3000),
	}); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(900)
	em.Stop()

	maintained := false
	for _, a := range tb.ctl.Actions() {
		if a.Kind == ActionMaintain {
			maintained = true
		}
	}
	if !maintained {
		t.Fatalf("maintenance never ran; actions: %v", tb.ctl.Actions())
	}
	if _, has := eng.Pool().Quota(bestID.String()); has {
		// Either dissolved or resized; a still-standing unchanged cage
		// after revert is the failure mode.
		q, _ := eng.Pool().Quota(bestID.String())
		if q <= 1200 {
			t.Fatalf("stale quota (%d pages) survived workload revert", q)
		}
	}
}

// TestQuotaMaintenanceResizesOrDissolves drives maintainQuotas'
// MRC-driven branches. A quota is forced on a class whose working set is
// steady at about a thousand pages, and the next maintenance sweep must
// dissolve a cage the class has outgrown and shrink one it never needed.
func TestQuotaMaintenanceResizesOrDissolves(t *testing.T) {
	bestID := metrics.ClassID{App: "shop", Class: "best"}
	cases := []struct {
		name  string
		quota int
		// detail matches the maintenance action; its one group is the
		// class's recomputed need in pages.
		detail *regexp.Regexp
		// dissolved is whether the sweep removes the quota rather than
		// resizing it to the need.
		dissolved bool
	}{
		{"outgrown", 200, regexp.MustCompile(`^needs (\d+) pages > quota 200; quota dissolved$`), true},
		{"oversized", 4000, regexp.MustCompile(`^quota 4000 -> (\d+) pages$`), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, 2, 4096, Config{Interval: 10, MaintainEvery: 3})
			app := scanApp("shop", sim.NewRNG(3), 3000)
			sched := startApp(t, tb, app)
			em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
				Mix: mixFor(app), ThinkTime: 0.4, Load: workload.Constant(8),
			})
			if err != nil {
				t.Fatal(err)
			}
			tb.ctl.Start()
			em.Start()
			tb.sim.RunUntil(120)
			eng := sched.Replicas()[0].Engine()
			if err := eng.Pool().SetQuota(bestID.String(), tc.quota); err != nil {
				t.Fatal(err)
			}
			tb.sim.RunUntil(160)
			em.Stop()

			var maint []Action
			for _, a := range tb.ctl.Actions() {
				if a.Kind == ActionMaintain {
					maint = append(maint, a)
				}
			}
			if len(maint) != 1 {
				t.Fatalf("want one maintenance action, got %d; actions: %v", len(maint), tb.ctl.Actions())
			}
			a := maint[0]
			t.Logf("t=%gs %s on %s: %s", a.Time, a.Class, a.Server, a.Detail)
			m := tc.detail.FindStringSubmatch(a.Detail)
			if m == nil || a.Class != bestID.Class || a.Server != sched.Replicas()[0].Server().Name() {
				t.Fatalf("maintenance action %+v, want class %s on the home server with detail matching %s",
					a, bestID.Class, tc.detail)
			}
			need, _ := strconv.Atoi(m[1])
			factor := tb.ctl.cfg.MRCChangeFactor
			q, has := eng.Pool().Quota(bestID.String())
			if tc.dissolved {
				if float64(need) <= factor*float64(tc.quota) {
					t.Errorf("need %d is within %.1f× the %d-page quota; dissolving it was wrong", need, factor, tc.quota)
				}
				if has {
					t.Errorf("quota still %d pages after it was dissolved", q)
				}
				return
			}
			if float64(tc.quota) <= factor*float64(need) {
				t.Errorf("the %d-page quota is within %.1f× the need %d; shrinking it was wrong", tc.quota, factor, need)
			}
			if !has || q != need {
				t.Errorf("quota = %d (present %v) after the sweep, want %d", q, has, need)
			}
		})
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() []Action {
		tb := newTestbed(t, 3, 2000, Config{Interval: 10})
		app := cpuApp("busy", 4, 0.15)
		sched := startApp(t, tb, app)
		em, err := workload.NewEmulator(tb.sim, sched, workload.Config{
			Mix: mixFor(app), ThinkTime: 0.1, Load: workload.Constant(60),
		})
		if err != nil {
			t.Fatal(err)
		}
		tb.ctl.Start()
		em.Start()
		tb.sim.RunUntil(150)
		em.Stop()
		return tb.ctl.Actions()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("action counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
