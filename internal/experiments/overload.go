package experiments

import (
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
)

// OverloadResult is the outcome of the overload-protection scenario: a
// CPU-bound application on a fully allocated two-server cluster is hit
// with 2× its nominal offered load for 200 s. The cluster has no free
// server, so the controller's provisioning path is exhausted by design
// and the brownout must shed the lowest-impact query classes — never
// the protected one — until the SLA holds, then readmit them all once
// the load returns to nominal.
type OverloadResult struct {
	Seed uint64
	// NominalLatency is the query-weighted average latency between
	// controller start and the overload (want: within SLA).
	NominalLatency float64
	// PeakLatency covers the first 50 s of the overload, before the
	// brownout has had time to bite (want: above SLA — proof that the
	// load pulse actually overloads the cluster).
	PeakLatency float64
	// ProtectedLatency is the protected class's mean latency over the
	// second half of the overload window, after the shed escalation has
	// converged (want: bounded near the SLA — the window overlaps
	// hysteresis readmission probes, so it runs slightly above a clean
	// stable interval but far below the unprotected saturation latency).
	ProtectedLatency float64
	// FinalLatency covers the last 100 s, long after the pulse (want:
	// within SLA with nothing shed).
	FinalLatency float64
	// ClientErrors counts scheduler errors surfaced to clients (want 0:
	// admission rejections are typed and clients retry through them).
	ClientErrors int
	// ShedInteractions counts client interactions turned away by
	// admission control over the whole run.
	ShedInteractions int64
	// ShedOrder is the first-shed order of distinct classes (want: a
	// prefix of the ascending-impact class order, protected excluded).
	ShedOrder []string
	// Resheds counts shed actions for classes already shed before
	// (hysteresis flaps inside the overload window).
	Resheds int
	// Readmits counts readmit-class actions.
	Readmits int
	// FinalShedClasses is the shed list at the end of the run (want
	// empty: everything readmitted).
	FinalShedClasses []string
	// FinalWindowRejections counts admission rejections of any kind
	// inside the final 100 s window (want 0: no shedding at nominal
	// load).
	FinalWindowRejections int64
	// Intervals is the controller-closed per-interval SLA series for the
	// whole run (latency percentiles and throughput per interval), for
	// distribution-level analysis such as internal/benchsuite's macro
	// percentiles.
	Intervals []sla.Interval
	Events    []obs.Event
	Actions   []core.Action
}

// Overload scenario geometry. The numbers are coupled: with ~3 s think
// time and 0.04 s of CPU per query on 2×4 cores, 450 closed-loop
// clients offer ~75% CPU utilization (comfortably stable), while 900
// clients offer 2× that — past saturation, where closed-loop latency
// settles near clients/capacity − think ≈ 1.5 s, well over the 1 s SLA.
const (
	overloadInterval = 10.0
	overloadCtlStart = 120.0
	overloadAt       = 200.0
	overloadEnd      = 400.0
	overloadEndAt    = 650.0
	overloadNominal  = 450
	overloadPeak     = 900
	overloadThink    = 3.0
	overloadDeadline = 5.0 // per-query completion bound for early rejection
)

// overloadClasses is the application's read-only class roster in
// ascending mix weight — which, under a uniform 2× load pulse, is also
// ascending metric impact (the heaviness weight of §3.3.1 dominates
// when every class's ratios grow alike). The brownout must shed in
// exactly this order. Checkout is protected and deliberately small.
var overloadClasses = []struct {
	name   string
	weight float64
}{
	{"Audit", 2},
	{"Report", 4},
	{"Recommend", 8},
	{"Browse", 16},
	{"Search", 32},
}

const overloadProtectedClass = "Checkout"
const overloadProtectedWeight = 3.0

func overloadClassID(name string) metrics.ClassID {
	return metrics.ClassID{App: "shop", Class: name}
}

// overloadApp builds the synthetic CPU-bound application: uniform cost
// per query across classes (so impact ranking is driven by volume, not
// per-query weight) and tiny per-class working sets (so the memory
// diagnosis finds nothing to rebalance and the brownout is genuinely
// the only remaining lever).
func overloadApp() *cluster.Application {
	app := &cluster.Application{Name: "shop", SLA: sla.Default()}
	names := make([]string, 0, len(overloadClasses)+1)
	for _, c := range overloadClasses {
		names = append(names, c.name)
	}
	names = append(names, overloadProtectedClass)
	for i, name := range names {
		app.Classes = append(app.Classes, engine.ClassSpec{
			ID: overloadClassID(name), CPUPerQuery: 0.04, PagesPerQuery: 2,
			Pattern: &trace.SequentialScan{Base: uint64(i) * 512, Span: 64},
		})
	}
	return app
}

func overloadMix() []workload.MixEntry {
	mix := make([]workload.MixEntry, 0, len(overloadClasses)+1)
	for _, c := range overloadClasses {
		mix = append(mix, workload.MixEntry{ID: overloadClassID(c.name), Weight: c.weight})
	}
	return append(mix, workload.MixEntry{
		ID: overloadClassID(overloadProtectedClass), Weight: overloadProtectedWeight,
	})
}

// classLatencyLog records per-class latency samples with the virtual
// time they were reported at, so the scenario can bound one class's
// latency over one window after the run.
type classLatencyLog struct {
	obs.Nop
	clock   func() float64
	samples []classLatencySample
}

type classLatencySample struct {
	time  float64
	class string
	count int64
	mean  float64
}

func (l *classLatencyLog) ClassLatency(cl obs.ClassLatencyObs) {
	l.samples = append(l.samples, classLatencySample{
		time: l.clock(), class: cl.Class, count: cl.Count, mean: cl.Mean,
	})
}

// mean returns the count-weighted mean latency of class over (from, to].
func (l *classLatencyLog) mean(class string, from, to float64) float64 {
	var sum float64
	var n int64
	for _, s := range l.samples {
		if s.class != class || s.time <= from || s.time > to {
			continue
		}
		sum += s.mean * float64(s.count)
		n += s.count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Overload runs the overload-protection scenario for one seed.
func (o Options) Overload(seed uint64) (*OverloadResult, error) {
	tb := o.newTestbed(seed, 2, PoolPages, core.Config{
		Interval:        overloadInterval,
		SettleIntervals: 2,
		// Coarse isolation needs a free server, which this cluster never
		// has; the brownout, not the fallback, is the overload response.
		FallbackAfter: 1000,
	})
	rec := obs.NewRecorder(1 << 14)
	lat := &classLatencyLog{clock: func() float64 { return tb.sim.Now().Seconds() }}
	observer := obs.Tee(rec, lat, o.Observer)
	tb.ctl.SetObserver(observer)
	tb.mgr.Observer = observer
	tb.mgr.Clock = func() float64 { return tb.sim.Now().Seconds() }

	app := overloadApp()
	sched := tb.startApp(app)
	// The second (and last) server: from here on ProvisionOnFreeServer
	// is exhausted and rebalancing cannot add capacity.
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		return nil, fmt.Errorf("provisioning second replica: %w", err)
	}

	adm := admission.NewController(admission.Config{
		// The token gate is set generously above nominal throughput: it
		// exists to clip pathological bursts, while the brownout — not
		// blind throttling — handles the sustained overload.
		Rate: 800, Burst: 800,
		QueueCap:     256,
		Deadline:     overloadDeadline,
		Protected:    map[metrics.ClassID]bool{overloadClassID(overloadProtectedClass): true},
		ReadmitAfter: 3,
	})
	sched.SetAdmission(adm)

	em := tb.emulate(sched, overloadMix(), overloadThink,
		workload.Pulse(overloadNominal, overloadPeak, overloadAt, overloadEnd))
	em.Start()
	tb.sim.ScheduleKind(simcore.KindControlAction, overloadCtlStart, tb.ctl.Start)

	finalStart := overloadEndAt - 100
	tb.sim.RunUntil(sim.Time(finalStart))
	rejectedBeforeFinal := adm.TotalRejected()
	tb.sim.RunUntil(sim.Time(overloadEndAt))
	em.Stop()

	res := &OverloadResult{Seed: seed}
	res.NominalLatency, _ = windowStats(sched, overloadCtlStart, overloadAt)
	res.PeakLatency, _ = windowStats(sched, overloadAt, overloadAt+50)
	res.ProtectedLatency = lat.mean(overloadProtectedClass, (overloadAt+overloadEnd)/2, overloadEnd)
	res.FinalLatency, _ = windowStats(sched, finalStart, overloadEndAt)
	res.ClientErrors = len(em.Errors())
	res.Intervals = append([]sla.Interval(nil), sched.Tracker().History()...)
	res.ShedInteractions = em.Shed()
	res.FinalWindowRejections = adm.TotalRejected() - rejectedBeforeFinal
	for _, id := range adm.ShedClasses() {
		res.FinalShedClasses = append(res.FinalShedClasses, id.Class)
	}
	seen := make(map[string]bool)
	for _, a := range tb.ctl.Actions() {
		switch a.Kind {
		case core.ActionShedClass:
			if seen[a.Class] {
				res.Resheds++
			} else {
				seen[a.Class] = true
				res.ShedOrder = append(res.ShedOrder, a.Class)
			}
		case core.ActionReadmitClass:
			res.Readmits++
		}
	}
	res.Events = rec.Events().Recent(0)
	res.Actions = tb.ctl.Actions()
	return res, nil
}
