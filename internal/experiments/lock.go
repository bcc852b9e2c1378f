package experiments

import (
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
)

// LockResult is the outcome of the lock-contention scenario — the §7
// future-work anomaly ("invoking a query with the wrong arguments, lock
// contention or deadlock situations") driven through the same outlier
// machinery as the paper's memory experiments.
type LockResult struct {
	// StableLatency / ContendedLatency are the application's average
	// latencies before and after the anomaly.
	StableLatency, ContendedLatency float64
	// ReportedVictim is the class whose lock waits the detector flagged.
	ReportedVictim string
	// ReportedHolder is the lock holder the diagnosis names.
	ReportedHolder string
	Actions        []core.Action
}

// LockContention builds a small ledger application: a write class
// updating the accounts table under an exclusive lock, read classes that
// must wait for it, and background classes for the IQR population. After
// a stable period, the write query starts being invoked with "wrong
// arguments" — a predicate that locks the table two orders of magnitude
// longer — and the controller's lock diagnosis names it.
func (o Options) LockContention(seed uint64) *LockResult {
	const (
		interval = 10.0
		breakAt  = 300.0
		endAt    = 600.0
		clients  = 40
		think    = 1.0
	)
	tb := o.newTestbed(seed, 1, PoolPages, core.Config{Interval: interval, SettleIntervals: 2})
	rng := tb.sim.RNG().Fork()

	update := metrics.ClassID{App: "ledger", Class: "UpdateBalance"}
	mkUpdate := func(hold float64) engine.ClassSpec {
		return engine.ClassSpec{
			ID: update, CPUPerQuery: 0.004, PagesPerQuery: 4,
			Pattern: trace.NewZipfSet(rng.Fork(), 0, 2000, 1.4),
			Write:   true, LockTable: "accounts", LockHold: hold,
		}
	}
	app := &cluster.Application{
		Name: "ledger",
		SLA:  sla.SLA{MaxAvgLatency: 0.3},
		Classes: []engine.ClassSpec{
			mkUpdate(0.002),
			{ID: metrics.ClassID{App: "ledger", Class: "ReadBalance"},
				CPUPerQuery: 0.002, PagesPerQuery: 2,
				Pattern:   trace.NewZipfSet(rng.Fork(), 0, 2000, 1.5),
				LockTable: "accounts"},
			{ID: metrics.ClassID{App: "ledger", Class: "Statement"},
				CPUPerQuery: 0.006, PagesPerQuery: 10,
				Pattern:   trace.NewZipfSet(rng.Fork(), 10000, 3000, 1.3),
				LockTable: "accounts"},
			{ID: metrics.ClassID{App: "ledger", Class: "Browse"},
				CPUPerQuery: 0.003, PagesPerQuery: 4,
				Pattern: trace.NewZipfSet(rng.Fork(), 20000, 2000, 1.5)},
			{ID: metrics.ClassID{App: "ledger", Class: "Search"},
				CPUPerQuery: 0.005, PagesPerQuery: 8,
				Pattern: trace.NewZipfSet(rng.Fork(), 30000, 2000, 1.3)},
			{ID: metrics.ClassID{App: "ledger", Class: "Export"},
				CPUPerQuery: 0.008, PagesPerQuery: 12,
				Pattern: trace.NewZipfSet(rng.Fork(), 40000, 2000, 1.3)},
		},
	}
	sched := tb.startApp(app)
	mix := []workload.MixEntry{
		{ID: update, Weight: 10},
		{ID: metrics.ClassID{App: "ledger", Class: "ReadBalance"}, Weight: 35},
		{ID: metrics.ClassID{App: "ledger", Class: "Statement"}, Weight: 15},
		{ID: metrics.ClassID{App: "ledger", Class: "Browse"}, Weight: 20},
		{ID: metrics.ClassID{App: "ledger", Class: "Search"}, Weight: 12},
		{ID: metrics.ClassID{App: "ledger", Class: "Export"}, Weight: 8},
	}
	em := tb.emulate(sched, mix, think, workload.Constant(clients))
	em.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, 60, tb.ctl.Start)
	tb.sim.RunUntil(breakAt)

	res := &LockResult{}
	res.StableLatency, _ = windowStats(sched, 100, breakAt)

	// The anomaly: the update starts locking the whole table for 300 ms
	// per invocation (a missing predicate / wrong argument).
	if err := sched.UpdateClass(mkUpdate(0.30)); err != nil {
		panic(err)
	}
	tb.sim.RunUntil(endAt)
	em.Stop()
	res.ContendedLatency, _ = windowStats(sched, breakAt+60, endAt)

	for _, a := range tb.ctl.Actions() {
		if a.Kind == core.ActionLockReport {
			res.ReportedVictim = a.Class
			res.ReportedHolder = a.Detail
			break
		}
	}
	res.Actions = tb.ctl.Actions()
	return res
}
