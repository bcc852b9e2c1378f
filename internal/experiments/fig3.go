package experiments

import (
	"outlierlb/internal/core"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// Figure3Result holds the three panels of Figure 3: the sinusoid client
// load (a), the dynamic machine allocation (b), and the average query
// latency against the SLA (c), all sampled per measurement interval.
type Figure3Result struct {
	Interval   float64   // sampling interval (seconds)
	Times      []float64 // sample timestamps
	Clients    []int     // (a) offered load
	Machines   []int     // (b) replicas allocated to TPC-W
	Latency    []float64 // (c) average query latency per interval
	Throughput []float64 // completed queries per second, per interval
	SLA        float64
	Actions    []core.Action
	// Intervals is the raw controller-closed per-interval SLA series the
	// panels above are projected from (latency percentiles included), for
	// distribution-level analysis such as internal/benchsuite's macro
	// percentiles.
	Intervals []sla.Interval
}

// Figure3 reproduces §5.2: a sinusoid client load (plus noise) drives
// TPC-W into CPU saturation; the reactive provisioning algorithm
// allocates replicas from the pool and load-balances all query classes
// over them, bringing latency back under the SLA.
func (o Options) Figure3(seed uint64) *Figure3Result {
	const (
		interval = 10.0
		warmup   = 200.0 // buffer pools fill before measurement starts
		duration = 1400.0
		servers  = 4
		think    = 1.0
	)
	// Larger pools than the §5.3 configuration: this experiment isolates
	// CPU contention, so the working set should cache well.
	tb := o.newTestbed(seed, servers, 2*PoolPages, core.Config{
		Interval:        interval,
		ShrinkBelow:     0.30,
		SettleIntervals: 3,
		// Provisioned replicas start cold and take several intervals to
		// warm; coarse isolation is never the right reaction to CPU
		// saturation, so it only backstops a long-failing episode.
		FallbackAfter: 12,
	})

	app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
	sched := tb.startApp(app)
	// Ramp gently through warmup, then the paper's sinusoid. Peak demand
	// (~960 clients at 1 s think time) needs three 4-core boxes; the
	// trough fits on one.
	sine := workload.Sinusoid(560, 400, 600)
	load := func(t float64) int {
		if t < warmup {
			return int(160 * t / warmup)
		}
		return sine(t - warmup)
	}
	em := tb.emulate(sched, tpcw.Mix(), think, load)

	em.Start()
	// The controller starts after warmup so cold-cache misses are not
	// misdiagnosed as memory interference.
	tb.sim.ScheduleKind(simcore.KindControlAction, warmup, tb.ctl.Start)
	tb.sim.RunUntil(duration)
	em.Stop()

	res := &Figure3Result{Interval: interval, SLA: app.SLA.MaxAvgLatency, Actions: tb.ctl.Actions()}
	machines := make(map[float64]int)
	for _, s := range tb.ctl.AllocationHistory() {
		if s.App == app.Name {
			machines[s.Time] = s.Replicas
		}
	}
	res.Intervals = append([]sla.Interval(nil), sched.Tracker().History()...)
	for _, iv := range sched.Tracker().History() {
		res.Times = append(res.Times, iv.End)
		res.Clients = append(res.Clients, load(iv.End))
		res.Latency = append(res.Latency, iv.AvgLatency)
		res.Throughput = append(res.Throughput, iv.Throughput)
		m := machines[iv.End]
		if m == 0 {
			m = 1
		}
		res.Machines = append(res.Machines, m)
	}
	return res
}

// MaxMachines reports the peak allocation.
func (r *Figure3Result) MaxMachines() int {
	max := 0
	for _, m := range r.Machines {
		if m > max {
			max = m
		}
	}
	return max
}

// FinalLatency reports the mean latency over the last quarter of the run.
func (r *Figure3Result) FinalLatency() float64 {
	if len(r.Latency) == 0 {
		return 0
	}
	start := len(r.Latency) * 3 / 4
	sum := 0.0
	for _, l := range r.Latency[start:] {
		sum += l
	}
	return sum / float64(len(r.Latency)-start)
}
