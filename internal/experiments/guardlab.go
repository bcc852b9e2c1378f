package experiments

import (
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/guard"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/resil"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// The guard lab runs the control plane against its own pathological
// policy templates (core.Pathological*): a deliberately-broken decision
// policy is switched on mid-run — the "fault" is the controller itself
// — and the action watchdog (internal/guard) must detect each harmful
// action by its measured fitness regression, roll it back, and contain
// the repetition with cooldowns, oscillation vetoes and the storm
// circuit. The policy is switched off later (the operator pulls the bad
// config), after which the run must recover; resil.Score turns the
// timeline into the scenario's scorecard with the policy window as the
// fault window.

// GuardTemplates lists the pathological templates GuardScenario
// accepts, in canonical order.
func GuardTemplates() []string {
	return []string{
		"reject-all-admission",
		"inverted-shed-order",
		"reverse-priority-readmission",
		"always-busiest-placement",
	}
}

// GuardResult is the outcome of one guard-lab scenario.
type GuardResult struct {
	Seed     uint64
	Template string
	// EnableAt / DisableAt bound the pathological policy window — the
	// scorecard's fault window.
	EnableAt, DisableAt float64
	// ProtectedLatency is the protected class's mean latency over the
	// policy window (admission templates) or the victim application's
	// final-window latency (placement template).
	ProtectedLatency float64
	// FinalLatency is the scored application's query-weighted latency
	// over the last 100 s, after the policy was pulled.
	FinalLatency float64
	// ClientErrors counts scheduler errors surfaced to clients (want 0).
	ClientErrors int
	// FinalShedClasses is the admission shed list at the end of the run.
	FinalShedClasses []string
	// Watchdog is the watchdog's lifetime counters for the run.
	Watchdog guard.Stats
	// Scorecard is the run scored with the policy window as the fault.
	Scorecard resil.Scorecard
	Intervals []sla.Interval
	Events    []obs.Event
	Actions   []core.Action
}

// guardPolicy maps a template name to its policy.
func guardPolicy(template string) (core.Policy, error) {
	switch template {
	case "reject-all-admission":
		return core.PathologicalRejectAll{}, nil
	case "inverted-shed-order":
		return core.PathologicalInvertedShed{}, nil
	case "reverse-priority-readmission":
		return core.PathologicalReverseReadmit{}, nil
	case "always-busiest-placement":
		return core.PathologicalAlwaysBusiest{}, nil
	}
	return nil, fmt.Errorf("unknown pathological template %q (have %v)", template, GuardTemplates())
}

// GuardScenario runs one pathological template under the watchdog for
// one seed.
func (o Options) GuardScenario(seed uint64, template string) (*GuardResult, error) {
	pol, err := guardPolicy(template)
	if err != nil {
		return nil, err
	}
	switch template {
	case "reject-all-admission":
		// No load pulse: the cluster is comfortably stable, so every
		// forced shed destroys throughput for nothing. Fitness is scored
		// on shed rate alone with a tight tolerance — at nominal load the
		// pre-action shed rate is exactly zero, so ANY rejected traffic
		// is pure, noise-free harm.
		return o.runGuardAdmission(seed, template, pol, guard.Config{
			EvaluateAfter: 2, BaselineWindow: 3, Tolerance: 0.02,
			Weights: guard.Weights{Shed: 1},
		}, workload.Constant(overloadNominal), 3)
	case "inverted-shed-order":
		// A genuine 2× pulse: shedding is needed, but the template sheds
		// the HIGHEST-impact class. Throughput-weighted fitness flags the
		// value destruction and the rollback readmits it.
		return o.runGuardAdmission(seed, template, pol, guard.Config{
			EvaluateAfter: 2, BaselineWindow: 3, Tolerance: 0.1,
			Weights:     guard.Weights{P99: 0.1, Throughput: 0.6, Shed: 0.3},
			StormWindow: 25,
		}, workload.Pulse(overloadNominal, overloadPeak, guardPulseAt, guardPulseEnd), 3)
	case "reverse-priority-readmission":
		// The same pulse with hair-trigger readmission hysteresis: the
		// template readmits mid-pulse and re-violates; the watchdog's
		// rollback re-sheds the class it should not have let back in.
		return o.runGuardAdmission(seed, template, pol, guard.Config{
			EvaluateAfter: 2, BaselineWindow: 3,
		}, workload.Pulse(overloadNominal, overloadPeak, guardPulseAt, guardPulseEnd), 2)
	case "always-busiest-placement":
		return o.runGuardPlacement(seed, template, pol, guard.Config{
			EvaluateAfter: 3, BaselineWindow: 3,
		})
	}
	return nil, fmt.Errorf("unknown pathological template %q", template)
}

// Guard-lab admission geometry: the overload testbed (two servers,
// fully allocated, brownout as the only lever) with the pathological
// policy switched on for [guardEnableAt, guardDisableAt].
const (
	guardInterval  = 10.0
	guardCtlStart  = 120.0
	guardEnableAt  = 250.0
	guardDisableAt = 550.0
	guardEndAt     = 750.0
	guardPulseAt   = 300.0
	guardPulseEnd  = 500.0
)

// runGuardAdmission runs an admission-path template on the overload
// geometry.
func (o Options) runGuardAdmission(seed uint64, template string, pol core.Policy, wcfg guard.Config,
	load workload.LoadFunction, readmitAfter int) (*GuardResult, error) {
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{
		Interval:        guardInterval,
		SettleIntervals: 2,
		FallbackAfter:   1000,
	})
	rec := obs.NewRecorder(1 << 14)
	lat := &classLatencyLog{clock: func() float64 { return tb.sim.Now().Seconds() }}
	observer := obs.Tee(rec, lat, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	wd := guard.New(wcfg, observer)
	wd.SetTracer(o.Tracer)
	tb.ctl.SetGuard(wd)

	app := overloadApp()
	sched := tb.startApp(app)
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		return nil, fmt.Errorf("provisioning second replica: %w", err)
	}
	adm := admission.NewController(admission.Config{
		Rate: 800, Burst: 800,
		QueueCap:     256,
		Deadline:     overloadDeadline,
		Protected:    map[metrics.ClassID]bool{overloadClassID(overloadProtectedClass): true},
		ReadmitAfter: readmitAfter,
	})
	sched.SetAdmission(adm)

	em := tb.emulate(sched, overloadMix(), overloadThink, load)
	em.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, guardCtlStart, tb.ctl.Start)
	tb.sim.ScheduleKindAt(simcore.KindControlAction, sim.Time(guardEnableAt), func() { tb.ctl.SetPolicy(pol) })
	tb.sim.ScheduleKindAt(simcore.KindControlAction, sim.Time(guardDisableAt), func() { tb.ctl.SetPolicy(nil) })
	tb.sim.RunUntil(sim.Time(guardEndAt))
	em.Stop()

	res := &GuardResult{
		Seed: seed, Template: template,
		EnableAt: guardEnableAt, DisableAt: guardDisableAt,
	}
	res.ProtectedLatency = lat.mean(overloadProtectedClass, guardEnableAt, guardDisableAt)
	res.FinalLatency, _ = windowStats(sched, guardEndAt-100, guardEndAt)
	res.ClientErrors = len(em.Errors())
	for _, id := range adm.ShedClasses() {
		res.FinalShedClasses = append(res.FinalShedClasses, id.Class)
	}
	res.Watchdog = wd.Stats()
	res.Intervals = append([]sla.Interval(nil), sched.Tracker().History()...)
	res.Events = rec.Events().Recent(0)
	res.Actions = tb.ctl.Actions()
	res.Scorecard = resil.Score(resil.Input{
		Scenario: "guard-" + template, Seed: seed,
		FaultAt: guardEnableAt, ClearAt: guardDisableAt,
		SLA:       app.SLA.MaxAvgLatency,
		Intervals: res.Intervals, Events: res.Events,
	})
	return res, nil
}

// noiseApp is the CPU-saturating background tenant of the placement
// geometry: one class, enough per-query CPU to keep its server's run
// queue deep, and a deliberately lenient SLA so the controller never
// retunes it — it exists purely to make its server the WORST possible
// reschedule target.
func noiseApp() *cluster.Application {
	return &cluster.Application{
		Name: "noise", SLA: sla.SLA{MaxAvgLatency: 60},
		Classes: []engine.ClassSpec{{
			// Heavy on every axis: 3× CPU oversubscription at the lab's
			// client count and a scan footprint twice the buffer pool, so
			// a class moved here queues behind a deep run queue AND misses
			// in a thrashed pool.
			ID: metrics.ClassID{App: "noise", Class: "Churn"}, CPUPerQuery: 0.05, PagesPerQuery: 16,
			Pattern: &trace.SequentialScan{Base: 0, Span: 2 * PoolPages},
		}},
	}
}

// Placement geometry timeline, mirroring the §5.4 consolidation study:
// TPC-W alone, RUBiS joins its engine under a suspended controller, the
// controller resumes WITH the pathological policy, and the policy is
// pulled later.
const (
	gplCtlStart  = 120.0
	gplJoinAt    = 400.0
	gplEnableAt  = 700.0
	gplDisableAt = 950.0
	gplEndAt     = 1250.0
)

// runGuardPlacement runs the always-busiest template on a three-server
// consolidation geometry: TPC-W and RUBiS share db1's engine (the §5.4
// interference), a RUBiS replica sits idle on db3 (the RIGHT reschedule
// target) and another shares db2 with a CPU-saturating noise tenant
// (the WORST one, and exactly the one the template picks).
func (o Options) runGuardPlacement(seed uint64, template string, pol core.Policy, wcfg guard.Config) (*GuardResult, error) {
	tb := o.newTestbed(seed, 3, PoolPages, core.Config{
		Interval:        guardInterval,
		SettleIntervals: 3,
		// Every server is occupied by design, so the coarse posture's
		// provision-a-server escalation can never succeed here; keep the
		// controller on the fine-grained reschedule path, where the
		// policy seam (and the watchdog judging it) lives.
		FallbackAfter: 1000,
	})
	rec := obs.NewRecorder(1 << 14)
	observer := obs.Tee(rec, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	wd := guard.New(wcfg, observer)
	wd.SetTracer(o.Tracer)
	tb.ctl.SetGuard(wd)

	// db1: TPC-W. db2: the noise tenant, CPU-saturated.
	tpcwApp := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	tsched := tb.startApp(tpcwApp)
	noise := noiseApp()
	nsched := tb.startApp(noise)
	tem := tb.emulate(tsched, tpcw.Mix(), 2.0, workload.Constant(60))
	nem := tb.emulate(nsched, []workload.MixEntry{{ID: noise.Classes[0].ID, Weight: 1}},
		1.0, workload.Constant(240))
	tem.Start()
	nem.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, gplCtlStart, tb.ctl.Start)
	tb.sim.RunUntil(sim.Time(gplJoinAt))

	// RUBiS joins db1's engine under a suspended controller; it also
	// gets a dedicated replica on db3 (idle) and an attached one on db2
	// (saturated), but every class is PINNED to db1 — the extra replicas
	// are reschedule candidates, not active capacity, so the policy's
	// target choice is the entire difference between repair and damage.
	tb.ctl.Suspend(true)
	rubisApp := rubis.New(tb.sim.RNG().Fork(), "")
	rsched := tb.registerApp(rubisApp)
	if err := tb.mgr.Attach(rubisApp.Name, tsched.Replicas()[0]); err != nil {
		return nil, fmt.Errorf("attaching rubis to db1: %w", err)
	}
	if _, err := tb.mgr.ProvisionOnFreeServer(rubisApp.Name); err != nil {
		return nil, fmt.Errorf("provisioning rubis on the free server: %w", err)
	}
	if err := tb.mgr.Attach(rubisApp.Name, nsched.Replicas()[0]); err != nil {
		return nil, fmt.Errorf("attaching rubis to the noise server: %w", err)
	}
	home := rsched.Replicas()[0]
	for _, spec := range rubisApp.Classes {
		if err := rsched.PlaceClass(spec.ID, home); err != nil {
			return nil, fmt.Errorf("pinning %v: %w", spec.ID, err)
		}
	}
	rem := tb.emulate(rsched, rubis.Mix(""), 2.0, workload.Constant(60))
	rem.Start()
	tb.sim.RunUntil(sim.Time(gplEnableAt))

	// The controller resumes already poisoned; the operator pulls the
	// policy at gplDisableAt and the default policy repairs the
	// interference for real.
	tb.ctl.SetPolicy(pol)
	tb.ctl.Suspend(false)
	tb.sim.ScheduleKindAt(simcore.KindControlAction, sim.Time(gplDisableAt), func() { tb.ctl.SetPolicy(nil) })
	tb.sim.RunUntil(sim.Time(gplEndAt))
	tem.Stop()
	nem.Stop()
	rem.Stop()

	res := &GuardResult{
		Seed: seed, Template: template,
		EnableAt: gplEnableAt, DisableAt: gplDisableAt,
	}
	res.ProtectedLatency, _ = windowStats(tsched, gplEndAt-200, gplEndAt)
	res.FinalLatency, _ = windowStats(rsched, gplEndAt-100, gplEndAt)
	res.ClientErrors = len(tem.Errors()) + len(rem.Errors())
	res.Watchdog = wd.Stats()
	res.Intervals = append([]sla.Interval(nil), rsched.Tracker().History()...)
	res.Events = rec.Events().Recent(0)
	res.Actions = tb.ctl.Actions()
	res.Scorecard = resil.Score(resil.Input{
		Scenario: "guard-" + template, Seed: seed,
		FaultAt: gplEnableAt, ClearAt: gplDisableAt,
		SLA:       rubisApp.SLA.MaxAvgLatency,
		Intervals: res.Intervals, Events: res.Events,
	})
	return res, nil
}
