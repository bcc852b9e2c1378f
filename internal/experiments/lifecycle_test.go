package experiments

import (
	"testing"

	"outlierlb/internal/core"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// TestLifecycle drives one long run through several of the paper's
// dynamic changes in sequence — warmup, consolidation, the controller's
// repair, a replica failure, recovery — and requires that the system
// ends stable, consistent and error-free. It is the integration test of
// the whole stack: workload → scheduler → engine → pool/disk/CPU →
// metrics → controller → actions.
func TestLifecycle(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	// The coarse fallback is a last resort: give the fine-grained
	// diagnosis room to collect a full MRC window even under throttled
	// throughput (the interference slows the very class being measured).
	tb := Options{}.newTestbed(1, 4, PoolPages, core.Config{
		Interval: 10, SettleIntervals: 3, FallbackAfter: 20,
	})

	// Phase 1: TPC-W alone reaches stable state.
	tpcwApp := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	tsched := tb.startApp(tpcwApp)
	tem := tb.emulate(tsched, tpcw.Mix(), 2.0, workload.Constant(60))
	tem.Start()
	tb.sim.Schedule(120, tb.ctl.Start)
	tb.sim.RunUntil(400)
	if _, ok := tb.ctl.Signatures().Lookup(tpcwApp.Name, "db1"); !ok {
		t.Fatal("no stable signature after warmup")
	}

	// Phase 2: RUBiS consolidates into the same engine; the controller
	// must repair the interference.
	rubisApp := rubis.New(tb.sim.RNG().Fork(), "")
	rsched := tb.registerApp(rubisApp)
	if err := tb.mgr.Attach(rubisApp.Name, tsched.Replicas()[0]); err != nil {
		t.Fatal(err)
	}
	rem := tb.emulate(rsched, rubis.Mix(""), 2.0, workload.Constant(60))
	rem.Start()
	tb.sim.RunUntil(900)

	repaired := false
	for _, a := range tb.ctl.Actions() {
		if a.Kind == core.ActionReschedule || a.Kind == core.ActionQuota {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("consolidation never repaired; actions: %v", tb.ctl.Actions())
	}
	lat, _ := windowStats(tsched, 750, 900)
	if lat > tsched.App().SLA.MaxAvgLatency {
		t.Fatalf("TPC-W not recovered after repair: %.3f", lat)
	}

	// Phase 3: a TPC-W replica crashes (provision a second one first so
	// there is something to lose).
	if _, err := tb.mgr.ProvisionOnFreeServer(tpcwApp.Name); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(1000)
	victim := tsched.Replicas()[1]
	tsched.MarkFailed(victim)
	tb.sim.RunUntil(1300)

	// Phase 4: recovery; the run winds down healthy.
	tsched.MarkRecovered(victim)
	tb.sim.RunUntil(1600)
	tem.Stop()
	rem.Stop()

	if errs := tem.Errors(); len(errs) != 0 {
		t.Fatalf("TPC-W clients saw %d errors: %v", len(errs), errs[0])
	}
	if errs := rem.Errors(); len(errs) != 0 {
		t.Fatalf("RUBiS clients saw %d errors: %v", len(errs), errs[0])
	}
	if err := tsched.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if err := rsched.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	finalT, _ := windowStats(tsched, 1450, 1600)
	finalR, _ := windowStats(rsched, 1450, 1600)
	if finalT > tsched.App().SLA.MaxAvgLatency {
		t.Fatalf("TPC-W ends violated: %.3f", finalT)
	}
	if finalR > rsched.App().SLA.MaxAvgLatency {
		t.Fatalf("RUBiS ends violated: %.3f", finalR)
	}
}
