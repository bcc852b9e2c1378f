package experiments

import (
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/faults"
	"outlierlb/internal/obs"
	"outlierlb/internal/resil"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// ChaosResult is the outcome of one chaos scenario: TPC-W on two
// replicas with the replica health layer enabled (per-query deadlines,
// retry with backoff, circuit breaking) while the fault injector attacks
// one replica. The robustness claims under test: no client ever sees an
// error, latency inflation stays bounded by the query deadline, the
// failure detector's transitions are all narrated as obs events, and the
// controller neither oscillates capacity nor misdiagnoses a server it
// cannot measure.
type ChaosResult struct {
	Seed uint64
	// Target is the attacked server's name.
	Target string
	// HealthyLatency / FaultLatency / FinalLatency are query-weighted
	// average latencies before the fault window, inside it, and over the
	// last 100 s of the run.
	HealthyLatency, FaultLatency, FinalLatency float64
	// ClientErrors counts scheduler errors surfaced to clients (want 0).
	ClientErrors int
	// BreakerTrips / Probes / Recoveries count the detector's events on
	// the target replica.
	BreakerTrips, Probes, Recoveries int
	// Retries counts reads retried on another replica after a timeout.
	Retries int
	// DegradedEvents counts controller degraded-analysis events for the
	// target server.
	DegradedEvents int
	// TargetOutlierDiagnoses counts outlier-context events emitted for
	// the target server inside the fault window (want 0 for a metric
	// blackout: no diagnosis from data that does not exist).
	TargetOutlierDiagnoses int
	// Provisions / Shrinks count capacity actions over the whole run; a
	// single fault must cause at most one provision/decommission pair.
	Provisions, Shrinks int
	// TargetHealthy reports whether the attacked replica ended the run
	// back in the healthy state with the fault cleared.
	TargetHealthy bool
	// Ctrl holds the control plane's protocol-safety counters; CtrlSent /
	// CtrlDropped / CtrlDuplicated are the channel's message totals.
	Ctrl                                  core.CtrlInvariants
	CtrlSent, CtrlDropped, CtrlDuplicated uint64
	// CtrlUnreachableEvents / CtrlAutonomyEvents count narrated failure-
	// detector declarations and engine autonomy entries.
	CtrlUnreachableEvents, CtrlAutonomyEvents int
	// FinalMetStreak is the consecutive SLA-met interval streak at the
	// end of the run — the recovery-after-heal criterion.
	FinalMetStreak int
	// Scorecard is the run reduced to its resilience milestones with
	// the injected fault window as ground truth.
	Scorecard resil.Scorecard
	// Intervals is the controller-closed per-interval SLA series for the
	// whole run (latency percentiles and throughput per interval), for
	// distribution-level analysis such as internal/benchsuite's macro
	// percentiles.
	Intervals []sla.Interval
	Events    []obs.Event
	Actions   []core.Action
}

// Chaos scenario geometry, shared so the three scenarios are comparable:
// warmup and controller start, fault window, then recovery headroom.
const (
	chaosInterval = 10.0
	chaosCtlStart = 120.0
	chaosDeadline = 5.0 // per-query deadline: 5× the 1 s SLA, above the healthy tail
	chaosClients  = 300
	chaosThink    = 1.0
)

// chaosOpts extends runChaos for the adversarial scenarios: mutate
// edits the controller config before the testbed is built (nil leaves
// the shared chaos config untouched, byte-for-byte), and inject gets
// the whole testbed so faults can target the controller's clock or the
// target replica's engine, not just its server.
type chaosOpts struct {
	// name labels the run's scorecard (RESIL_*.json scenario field).
	name   string
	mutate func(cfg *core.Config)
	inject func(in *faults.Injector, tb *testbed, target *cluster.Replica)
	// admission attaches an admission controller to the application so
	// the brownout shed/readmit paths — remote actions over the control
	// channel — participate in the run.
	admission bool
	// clients overrides the constant client population (nil keeps
	// workload.Constant(chaosClients)); the lossy-channel scenario uses
	// a pulse so overload forces a stream of retuning actions.
	clients workload.LoadFunction
}

// runChaos builds the shared chaos testbed — TPC-W on two of three
// servers, health management on, controller ticking — lets inject
// schedule faults against the second replica, runs to endAt and collects
// the result. The fault window [faultAt, clearAt] only shapes the
// latency windows; the injected fault decides what actually happens.
func (o Options) runChaos(seed uint64, name string, faultAt, clearAt, endAt float64,
	inject func(in *faults.Injector, target *cluster.Replica)) (*ChaosResult, error) {
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name: name,
		inject: func(in *faults.Injector, _ *testbed, target *cluster.Replica) {
			inject(in, target)
		},
	})
}

// runChaosOpts is runChaos with the adversarial extension points.
func (o Options) runChaosOpts(seed uint64, faultAt, clearAt, endAt float64, opts chaosOpts) (*ChaosResult, error) {
	cfg := core.Config{
		Interval:        chaosInterval,
		SettleIntervals: 3,
		// The fine-grained paths degrade deliberately under these faults;
		// a violation streak must not escalate to coarse isolation.
		FallbackAfter: 50,
		// Scale-down is enabled but guarded: three stable intervals
		// before a shrink, so one quiet interval mid-fault cannot release
		// the capacity the next flap phase needs.
		ShrinkBelow: 0.25,
		ShrinkAfter: 3,
		// Signatures starved by a blackout go stale rather than serving
		// as a bogus baseline.
		SignatureMaxAge: 6 * chaosInterval,
	}
	if opts.mutate != nil {
		opts.mutate(&cfg)
	}
	tb := o.newTestbed(seed, 3, 2*PoolPages, cfg)
	rec := obs.NewRecorder(1 << 14)
	observer := obs.Tee(rec, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	sched := tb.startApp(app)
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		return nil, fmt.Errorf("provisioning second replica: %w", err)
	}
	sched.SetHealthConfig(cluster.HealthConfig{QueryDeadline: chaosDeadline})
	sched.SetClock(func() float64 { return tb.sim.Now().Seconds() })
	sched.SetObserver(observer)
	if opts.admission {
		sched.SetAdmission(admission.NewController(admission.Config{
			// Generous token gate: the brownout, not blind throttling, is
			// the overload response under test.
			Rate: 2000, Burst: 2000,
			QueueCap:     256,
			Deadline:     chaosDeadline,
			ReadmitAfter: 3,
		}))
	}

	target := sched.Replicas()[1]
	in := faults.New(tb.sim)
	in.SetObserver(observer)
	opts.inject(in, tb, target)

	clients := opts.clients
	if clients == nil {
		clients = workload.Constant(chaosClients)
	}
	em := tb.emulate(sched, tpcw.Mix(), chaosThink, clients)
	em.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, chaosCtlStart, tb.ctl.Start)
	tb.sim.RunUntil(sim.Time(endAt))
	em.Stop()

	res := &ChaosResult{Seed: seed, Target: target.Server().Name()}
	res.HealthyLatency, _ = windowStats(sched, chaosCtlStart, faultAt)
	res.FaultLatency, _ = windowStats(sched, faultAt, clearAt)
	res.FinalLatency, _ = windowStats(sched, endAt-100, endAt)
	res.ClientErrors = len(em.Errors())
	res.Intervals = append([]sla.Interval(nil), sched.Tracker().History()...)
	res.Events = rec.Events().Recent(0)
	for _, e := range res.Events {
		onTarget := e.Server == res.Target
		switch e.Kind {
		case obs.EventBreakerTrip:
			if onTarget {
				res.BreakerTrips++
			}
		case obs.EventBreakerProbe:
			if onTarget {
				res.Probes++
			}
		case obs.EventReplicaRecovered:
			if onTarget {
				res.Recoveries++
			}
		case obs.EventQueryRetry:
			res.Retries++
		case obs.EventDegradedAnalysis:
			if onTarget {
				res.DegradedEvents++
			}
		case obs.EventOutlier:
			if onTarget && e.Time >= faultAt && e.Time <= clearAt {
				res.TargetOutlierDiagnoses++
			}
		case obs.EventCtrlUnreachable:
			res.CtrlUnreachableEvents++
		case obs.EventCtrlAutonomy:
			res.CtrlAutonomyEvents++
		}
	}
	for i := len(res.Intervals) - 1; i >= 0; i-- {
		if !res.Intervals[i].Met {
			break
		}
		res.FinalMetStreak++
	}
	res.Ctrl = tb.cp.Invariants()
	ns := tb.net.Stats()
	res.CtrlSent = ns.Sent
	res.CtrlDropped = ns.Dropped + ns.PartitionDropped + ns.PartitionCancelled
	res.CtrlDuplicated = ns.Duplicated
	res.TargetHealthy = !target.Down() && sched.Health(target) == cluster.HealthHealthy
	res.Scorecard = resil.Score(resil.Input{
		Scenario: opts.name, Seed: seed,
		FaultAt: faultAt, ClearAt: clearAt,
		SLA:       app.SLA.MaxAvgLatency,
		Intervals: res.Intervals, Events: res.Events,
	})
	for _, a := range tb.ctl.Actions() {
		switch a.Kind {
		case core.ActionProvision:
			res.Provisions++
		case core.ActionShrink:
			res.Shrinks++
		}
	}
	res.Actions = tb.ctl.Actions()
	return res, nil
}

// ChaosGrayFailure degrades one replica's disk by 8× for 200 s: the
// replica keeps answering, slowly — the failure an announced-crash model
// cannot represent. Queries queueing on the degraded disk blow their
// deadline, the windowed breaker condition trips (successes interleave,
// so consecutive counting would never fire), reads drain to the healthy
// replica, and half-open probes re-admit the replica once the disk
// recovers and its backlog drains.
func (o Options) ChaosGrayFailure(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 400.0, 600.0
	return o.runChaos(seed, "gray-failure", faultAt, clearAt, endAt,
		func(in *faults.Injector, target *cluster.Replica) {
			in.GrayFailure(target.Server(), faultAt, clearAt, 8)
		})
}

// ChaosFlapping cycles one replica down/up (≈15 s down, ≈15 s up, ±2 s
// seeded jitter) for 120 s: every down phase trips the breaker within a
// few consecutive timeouts, probes during up phases re-admit it, and the
// controller's stable-streak guard keeps the capacity allocation from
// oscillating with the flaps.
func (o Options) ChaosFlapping(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 320.0, 500.0
	return o.runChaos(seed, "flapping", faultAt, clearAt, endAt,
		func(in *faults.Injector, target *cluster.Replica) {
			in.Flap(target, faultAt, clearAt, 15, 15, 2)
		})
}

// ChaosMetricBlackout makes one server's monitoring unreachable for
// 150 s while it keeps serving queries: clients notice nothing, and the
// controller must skip analysis for the dark server — narrating the
// degradation — rather than mistake absent metrics for an idle machine
// or diagnose outliers from data that does not exist.
func (o Options) ChaosMetricBlackout(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 350.0, 500.0
	return o.runChaos(seed, "metric-blackout", faultAt, clearAt, endAt,
		func(in *faults.Injector, target *cluster.Replica) {
			in.MetricBlackout(target.Server(), faultAt, clearAt)
		})
}
