package experiments

import (
	"outlierlb/internal/core"
	"outlierlb/internal/simcore"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// Table2Row is one configuration of the §5.4 consolidation study.
type Table2Row struct {
	// Placement names the configuration as in the paper's table.
	Placement string
	// Latency is TPC-W's average query latency in seconds.
	Latency float64
	// WIPS is TPC-W's web interactions per second.
	WIPS float64
}

// Table2Result also records what the diagnosis concluded.
type Table2Result struct {
	Rows []Table2Row
	// MovedClass is the query class the controller rescheduled onto a
	// different replica (the paper: SearchItemsByRegion).
	MovedClass string
	Actions    []core.Action
}

// Table2 reproduces §5.4: TPC-W runs alone inside one DBMS and meets its
// SLA; the RUBiS workload then starts inside the same DBMS, sharing the
// 8192-page buffer pool, and TPC-W's latency collapses; the controller
// diagnoses the newly-added RUBiS SearchItemsByRegion class as the
// problem (its acceptable memory cannot be co-located with TPC-W) and
// reschedules it onto a different replica, after which TPC-W recovers.
func (o Options) Table2(seed uint64) *Table2Result {
	const (
		interval    = 10.0
		aloneUntil  = 400.0
		sharedUntil = 700.0
		endAt       = 1100.0
		tpcwClients = 60
		rubisCli    = 60
		think       = 2.0
	)
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{
		Interval:        interval,
		SettleIntervals: 3,
	})

	tpcwApp := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	tsched := tb.startApp(tpcwApp)
	tem := tb.emulate(tsched, tpcw.Mix(), think, workload.Constant(tpcwClients))
	tem.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, 120, tb.ctl.Start) // start measuring after cache warmup

	// Phase 1: TPC-W alone.
	tb.sim.RunUntil(aloneUntil)
	res := &Table2Result{}
	lat, wips := windowStats(tsched, 200, aloneUntil)
	res.Rows = append(res.Rows, Table2Row{Placement: "TPC-W | IDLE", Latency: lat, WIPS: wips})

	// Phase 2: RUBiS joins inside the same database engine. The
	// controller is suspended (observe-only) so the raw interference of
	// the shared pool can be measured before any repair.
	tb.ctl.Suspend(true)
	rubisApp := rubis.New(tb.sim.RNG().Fork(), "")
	rsched := tb.registerApp(rubisApp)
	if err := tb.mgr.Attach(rubisApp.Name, tsched.Replicas()[0]); err != nil {
		panic(err)
	}
	rem := tb.emulate(rsched, rubis.Mix(""), think, workload.Constant(rubisCli))
	rem.Start()
	tb.sim.RunUntil(sharedUntil)
	lat, wips = windowStats(tsched, aloneUntil+60, sharedUntil)
	res.Rows = append(res.Rows, Table2Row{Placement: "TPC-W | RUBiS (shared pool)", Latency: lat, WIPS: wips})

	// Phase 3: let the diagnosis act, then measure the final state.
	tb.ctl.Suspend(false)
	tb.sim.RunUntil(endAt)
	tem.Stop()
	rem.Stop()
	lat, wips = windowStats(tsched, endAt-200, endAt)
	moved := ""
	for _, a := range tb.ctl.Actions() {
		if a.Kind == core.ActionReschedule || a.Kind == core.ActionIOMove {
			moved = a.Class
			break
		}
	}
	label := "TPC-W | RUBiS1 (class rescheduled)"
	res.Rows = append(res.Rows, Table2Row{Placement: label, Latency: lat, WIPS: wips})
	res.MovedClass = moved
	res.Actions = tb.ctl.Actions()
	return res
}
