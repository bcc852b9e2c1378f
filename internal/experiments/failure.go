package experiments

import (
	"fmt"
	"outlierlb/internal/simcore"

	"outlierlb/internal/core"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// FailureResult is the outcome of the replica-failure scenario. The
// paper's environment assumes "dynamic changes, such as load bursts,
// failures and query pattern changes can occur at any given time"; this
// scenario injects a crash and verifies that the scheduler reroutes, the
// controller re-provisions, and no client ever observes an error.
type FailureResult struct {
	// BeforeLatency / DuringLatency / AfterLatency are the application's
	// average latencies before the crash, between the crash and the
	// controller's reaction, and at the end of the run.
	BeforeLatency, DuringLatency, AfterLatency float64
	// ClientErrors counts scheduler errors surfaced to clients (want 0:
	// the surviving replica keeps serving).
	ClientErrors int
	// Provisioned reports whether the controller added a replacement
	// replica after the crash saturated the survivor.
	Provisioned bool
	Actions     []core.Action
}

// FailureRecovery runs TPC-W on two replicas under a load that needs
// both, crashes one, and lets the controller restore capacity from the
// free pool.
func (o Options) FailureRecovery(seed uint64) (*FailureResult, error) {
	const (
		interval = 10.0
		crashAt  = 400.0
		endAt    = 900.0
		clients  = 900 // needs two boxes; one survivor saturates
		think    = 1.0
	)
	tb := o.newTestbed(seed, 3, 2*PoolPages, core.Config{Interval: interval, SettleIntervals: 3, FallbackAfter: 10})
	app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	sched := tb.startApp(app)
	victim, err := tb.mgr.ProvisionOnFreeServer(app.Name)
	if err != nil {
		return nil, fmt.Errorf("provisioning second replica: %w", err)
	}
	em := tb.emulate(sched, tpcw.Mix(), think, workload.Constant(clients))
	em.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, 120, tb.ctl.Start)
	tb.sim.RunUntil(crashAt)

	res := &FailureResult{}
	res.BeforeLatency, _ = windowStats(sched, 200, crashAt)

	sched.MarkFailed(victim)
	tb.sim.RunUntil(crashAt + 60)
	res.DuringLatency, _ = windowStats(sched, crashAt, crashAt+60)

	tb.sim.RunUntil(endAt)
	em.Stop()
	res.AfterLatency, _ = windowStats(sched, endAt-150, endAt)
	res.ClientErrors = len(em.Errors())
	for _, a := range tb.ctl.Actions() {
		if a.Kind == core.ActionProvision && a.Time > crashAt {
			res.Provisioned = true
		}
	}
	res.Actions = tb.ctl.Actions()
	return res, nil
}
