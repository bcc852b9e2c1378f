package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/resil"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
	"outlierlb/internal/wltemporal"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// TemporalResult is the outcome of one temporal-workload scenario: a
// load pattern with explicit time structure (flash crowd, diurnal
// cycle, OLAP antagonist window) attacks the cluster and the control
// plane must follow it — detect the surge, act, and return to baseline
// when the pattern passes. The surge window plays the role the fault
// window plays in the chaos scenarios, including for the scorecard.
type TemporalResult struct {
	Seed     uint64
	Scenario string
	// BaselineLatency / SurgeLatency / FinalLatency are query-weighted
	// average latencies before the surge window, inside its first half,
	// and over the last 100 s of the run.
	BaselineLatency, SurgeLatency, FinalLatency float64
	// ClientErrors counts scheduler errors surfaced to the load source
	// (want 0).
	ClientErrors int
	// Offered counts submissions the load source presented (accepted +
	// shed); Shed counts the ones admission control turned away.
	Offered, Shed int64
	// Provisions / Shrinks count capacity actions over the whole run —
	// a pattern-following controller provisions into the surge and
	// shrinks after it.
	Provisions, Shrinks int
	// FinalMetStreak is the consecutive SLA-met interval streak at the
	// end of the run.
	FinalMetStreak int
	// Scorecard reduces the run to its resilience milestones with the
	// surge window as ground truth.
	Scorecard resil.Scorecard
	Intervals []sla.Interval
	Events    []obs.Event
	Actions   []core.Action
}

// Temporal scenario geometry, shared so the scenarios are comparable
// with each other and with the chaos suite.
const (
	temporalInterval = 10.0
	temporalCtlStart = 120.0
)

// collect reduces the shared run state to a TemporalResult.
func temporalCollect(tb *testbed, sched *cluster.Scheduler, rec *obs.Recorder,
	gen loadgen, name string, seed uint64, surgeAt, clearAt, endAt float64) *TemporalResult {
	res := &TemporalResult{Seed: seed, Scenario: name}
	res.BaselineLatency, _ = windowStats(sched, temporalCtlStart, surgeAt)
	res.SurgeLatency, _ = windowStats(sched, surgeAt, (surgeAt+clearAt)/2)
	res.FinalLatency, _ = windowStats(sched, endAt-100, endAt)
	res.ClientErrors = len(gen.Errors())
	res.Offered = gen.Interactions() + gen.Shed()
	res.Shed = gen.Shed()
	res.Intervals = append([]sla.Interval(nil), sched.Tracker().History()...)
	res.Events = rec.Events().Recent(0)
	for i := len(res.Intervals) - 1; i >= 0; i-- {
		if !res.Intervals[i].Met {
			break
		}
		res.FinalMetStreak++
	}
	for _, a := range tb.ctl.Actions() {
		switch a.Kind {
		case core.ActionProvision:
			res.Provisions++
		case core.ActionShrink:
			res.Shrinks++
		}
	}
	res.Actions = tb.ctl.Actions()
	res.Scorecard = resil.Score(resil.Input{
		Scenario: name, Seed: seed,
		FaultAt: surgeAt, ClearAt: clearAt,
		SLA:       sched.App().SLA.MaxAvgLatency,
		Intervals: res.Intervals, Events: res.Events,
	})
	return res
}

// Flash-crowd geometry: a 70 qps OLTP baseline (≈70% of one replica's
// 100 qps CPU capacity) absorbs a referral-event crowd — onset at 300,
// 10 s ramp to a 160 qps peak, power-law decay — arriving in MMPP
// bursts. The cluster has one free server, so the controller can
// provision into the surge while the brownout clips what still
// overflows; by clearAt the crowd has decayed away and the extra
// capacity should drain back out.
const (
	flashBaseRate  = 70.0
	flashPeakRate  = 160.0
	flashOnset     = 300.0
	flashRampSecs  = 10.0
	flashDecay     = 1.2
	flashClearAt   = 500.0
	flashEndAt     = 700.0
	flashCrowdFrom = 250.0 // cohort window start (shape is zero until onset)
)

// flashCohorts builds the two open-loop cohorts of the flash-crowd
// scenario. A fresh slice per run: MMPP carries phase state.
func flashCohorts() []wltemporal.Cohort {
	return []wltemporal.Cohort{
		{
			Name: "oltp",
			Mix:  overloadMix(),
			Rate: wltemporal.Flat(flashBaseRate),
		},
		{
			Name: "crowd",
			Mix: []workload.MixEntry{
				{ID: overloadClassID("Search"), Weight: 2},
				{ID: overloadClassID("Browse"), Weight: 1},
			},
			Rate:    wltemporal.FlashCrowd(flashPeakRate, flashOnset, flashRampSecs, flashDecay),
			Process: &wltemporal.MMPP{Burst: 3, CalmMean: 20, BurstMean: 5},
			StartAt: flashCrowdFrom,
			StopAt:  flashClearAt,
		},
	}
}

// FlashCrowd runs the flash-crowd scenario for one seed. With
// Options.Replay set the recorded offered load replaces the live
// generators, exactly as in the emulator-driven scenarios.
func (o Options) FlashCrowd(seed uint64) (*TemporalResult, error) {
	res, _, err := o.runFlashCrowd(seed, false, o.Replay)
	return res, err
}

// runFlashCrowd is the shared flash-crowd run. With record set it also
// returns the offered load as a workload-trace-v2; with replay non-nil
// it feeds the trace through a Replayer instead of driving the
// generators (RNG fork parity keeps the rest of the run bit-identical —
// TraceReplayIdentity asserts exactly that).
func (o Options) runFlashCrowd(seed uint64, record bool, replay *wltemporal.Trace) (*TemporalResult, *wltemporal.Trace, error) {
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{
		Interval:        temporalInterval,
		SettleIntervals: 2,
		FallbackAfter:   1000, // the brownout and provisioning, not coarse isolation
		ShrinkBelow:     0.25,
		ShrinkAfter:     3,
	})
	rec := obs.NewRecorder(1 << 14)
	observer := obs.Tee(rec, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	app := overloadApp()
	sched := tb.startApp(app)
	sched.SetAdmission(admission.NewController(admission.Config{
		Rate: 800, Burst: 800,
		QueueCap:     256,
		Deadline:     overloadDeadline,
		Protected:    map[metrics.ClassID]bool{overloadClassID(overloadProtectedClass): true},
		ReadmitAfter: 3,
	}))

	var gen loadgen
	var wrec *wltemporal.Recorder
	if replay != nil {
		rep, err := wltemporal.NewReplayer(tb.sim, replay,
			func(cohort string, now float64, class metrics.ClassID) error {
				_, err := sched.Submit(now, class)
				return err
			})
		if err != nil {
			return nil, nil, err
		}
		gen = rep
	} else {
		cfg := wltemporal.Config{}
		if record || o.OnArrival != nil {
			if record {
				wrec = wltemporal.NewRecorder()
				for _, c := range flashCohorts() {
					wrec.Register(c.Name)
				}
			}
			cfg.OnArrival = func(cohort string, t float64, class metrics.ClassID) {
				if wrec != nil {
					wrec.Observe(cohort, t, class)
				}
				if o.OnArrival != nil {
					o.OnArrival(cohort, t, class)
				}
			}
		}
		drv, err := wltemporal.NewDriver(tb.sim, sched, flashCohorts(), cfg)
		if err != nil {
			return nil, nil, err
		}
		gen = drv
	}

	gen.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, temporalCtlStart, tb.ctl.Start)
	tb.sim.RunUntil(sim.Time(flashEndAt))
	gen.Stop()

	res := temporalCollect(tb, sched, rec, gen, "flash-crowd", seed,
		flashOnset, flashClearAt, flashEndAt)
	if wrec != nil {
		return res, wrec.Trace(), nil
	}
	return res, nil, nil
}

// Diurnal-shift geometry: closed-loop clients follow a day/night cycle
// through the Clients bridge — the 40 qps trough fits well inside one
// replica's ≈100 qps capacity, the 200 qps midday peak does not — so a
// pattern-following controller provisions into the peak and shrinks
// back as the evening fades. The surge window for the scorecard is the
// stretch of the cycle where one replica cannot hold the SLA.
const (
	diurnalPeriod    = 800.0
	diurnalBaseRate  = 120.0
	diurnalAmpRate   = 80.0
	diurnalPerClient = 0.8 // ≈ 1/(think + typical latency) interactions/s per client
	diurnalThink     = 1.0
	// The surge window brackets the stretch where offered load outruns
	// one replica badly enough to breach the SLA: rate crosses ≈160 qps
	// (closed-loop saturation latency 1 s) at t≈267 on the way up and
	// t≈533 on the way down.
	diurnalSurgeAt = 240.0
	diurnalClearAt = 560.0
	diurnalEndAt   = diurnalPeriod + 200
)

// DiurnalShift runs the diurnal-cycle scenario for one seed.
func (o Options) DiurnalShift(seed uint64) (*TemporalResult, error) {
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{
		Interval:        temporalInterval,
		SettleIntervals: 2,
		FallbackAfter:   1000,
		ShrinkBelow:     0.25,
		ShrinkAfter:     3,
	})
	rec := obs.NewRecorder(1 << 14)
	observer := obs.Tee(rec, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	app := overloadApp()
	sched := tb.startApp(app)

	load := wltemporal.Clients(
		wltemporal.Diurnal(diurnalBaseRate, diurnalAmpRate, diurnalPeriod), diurnalPerClient)
	gen := tb.emulate(sched, overloadMix(), diurnalThink, load)
	gen.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, temporalCtlStart, tb.ctl.Start)
	tb.sim.RunUntil(sim.Time(diurnalEndAt))
	gen.Stop()

	return temporalCollect(tb, sched, rec, gen, "diurnal-shift", seed,
		diurnalSurgeAt, diurnalClearAt, diurnalEndAt), nil
}

// OLAP-antagonist geometry: TPC-W on two of three servers as in the
// chaos scenarios, plus a scan-heavy OLAP application attached inside
// the second replica's database engine (the paper's §5.4 co-location).
// The antagonist cohort runs only inside the surge window, streaming
// large sequential scans in MMPP bursts through the shared buffer pool
// — the second replica becomes the outlier while the servers stay
// healthy, which is precisely the fine-grained-diagnosis case.
const (
	olapSurgeAt = 300.0
	olapClearAt = 500.0
	olapEndAt   = 700.0
	olapRate    = 1.5 // scans per second at the antagonist's plateau
)

func olapClassID() metrics.ClassID { return metrics.ClassID{App: "olap", Class: "Scan"} }

// olapApp is the antagonist: few queries, each dragging thousands of
// pages through the shared pool.
func olapApp() *cluster.Application {
	return &cluster.Application{
		Name: "olap",
		// A deliberately loose SLA: the antagonist is not the tenant
		// whose latency the run is judged on.
		SLA: sla.SLA{MaxAvgLatency: 30},
		Classes: []engine.ClassSpec{{
			ID: olapClassID(), CPUPerQuery: 0.1, PagesPerQuery: 1000,
			Pattern: &trace.SequentialScan{Base: 1 << 20, Span: 100000},
		}},
	}
}

// OLAPAntagonist runs the co-location scenario for one seed.
func (o Options) OLAPAntagonist(seed uint64) (*TemporalResult, error) {
	tb := o.newTestbed(seed, 3, 2*PoolPages, core.Config{
		Interval:        temporalInterval,
		SettleIntervals: 3,
		// Antagonist interference can be too diffuse for a single fine-
		// grained repair; a minute of sustained violation escalates to
		// the coarse fallback (the third server is free for exactly
		// this), so mitigation is guaranteed rather than heuristic.
		FallbackAfter: 6,
		ShrinkBelow:   0.25,
		ShrinkAfter:   3,
	})
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

	osched := tb.registerApp(olapApp())
	if err := tb.mgr.Attach("olap", sched.Replicas()[1]); err != nil {
		return nil, fmt.Errorf("attaching antagonist: %w", err)
	}
	// A tight queue cap on the antagonist: a real OLAP submitter stops
	// piling scans onto a struggling engine, so interference comes from
	// pool pollution and disk contention, not from an unbounded backlog
	// that would outlive the surge window.
	osched.SetAdmission(admission.NewController(admission.Config{
		Rate: 10, Burst: 10, QueueCap: 4, Deadline: 30,
	}))
	antagonist, err := wltemporal.NewDriver(tb.sim, osched, []wltemporal.Cohort{{
		Name:    "olap-scan",
		Mix:     []workload.MixEntry{{ID: olapClassID(), Weight: 1}},
		Rate:    wltemporal.Ramp(0, olapRate, olapSurgeAt, olapSurgeAt+20),
		Process: &wltemporal.MMPP{Burst: 2, CalmMean: 15, BurstMean: 5},
		StartAt: olapSurgeAt,
		StopAt:  olapClearAt,
	}}, wltemporal.Config{OnArrival: func(cohort string, t float64, class metrics.ClassID) {
		if o.OnArrival != nil {
			o.OnArrival(cohort, t, class)
		}
	}})
	if err != nil {
		return nil, err
	}

	gen := tb.emulate(sched, tpcw.Mix(), chaosThink, workload.Constant(chaosClients))
	gen.Start()
	antagonist.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, temporalCtlStart, tb.ctl.Start)
	tb.sim.RunUntil(sim.Time(olapEndAt))
	antagonist.Stop()
	gen.Stop()

	return temporalCollect(tb, sched, rec, gen, "olap-antagonist", seed,
		olapSurgeAt, olapClearAt, olapEndAt), nil
}

// TraceReplayIdentity is the record→replay acceptance check as a
// scenario: run flash-crowd while recording its offered load, replay
// the trace into an identically-seeded fresh testbed, and require the
// replayed run to reproduce the recorded run's controller-closed
// intervals and retuning actions byte-for-byte (JSON). It returns the
// replayed run's result (scorecard and all) and errors on any
// divergence, so a regression in replay fidelity fails the resilience
// gate rather than shifting numbers silently.
func (o Options) TraceReplayIdentity(seed uint64) (*TemporalResult, error) {
	orig, tr, err := o.runFlashCrowd(seed, true, nil)
	if err != nil {
		return nil, err
	}
	if tr == nil || len(tr.Arrivals) == 0 {
		return nil, fmt.Errorf("trace-replay-identity: recorded an empty trace")
	}
	replayed, _, err := o.runFlashCrowd(seed, false, tr)
	if err != nil {
		return nil, err
	}
	replayed.Scenario = "trace-replay-identity"
	replayed.Scorecard.Scenario = "trace-replay-identity"

	encode := func(v any) ([]byte, error) { return json.Marshal(v) }
	for _, cmp := range []struct {
		what      string
		live, rep any
	}{
		{"intervals", orig.Intervals, replayed.Intervals},
		{"actions", orig.Actions, replayed.Actions},
	} {
		a, err := encode(cmp.live)
		if err != nil {
			return nil, err
		}
		b, err := encode(cmp.rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("trace-replay-identity: replayed %s diverge from the recorded run (seed %d)",
				cmp.what, seed)
		}
	}
	if orig.Offered != replayed.Offered || orig.Shed != replayed.Shed {
		return nil, fmt.Errorf("trace-replay-identity: offered/shed %d/%d replayed as %d/%d (seed %d)",
			orig.Offered, orig.Shed, replayed.Offered, replayed.Shed, seed)
	}
	return replayed, nil
}
