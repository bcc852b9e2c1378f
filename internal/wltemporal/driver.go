package wltemporal

import (
	"fmt"
	"math"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/metrics"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/workload"
)

// Cohort is one named stream of open-loop arrivals: a query-class mix
// shaped by a rate function, realised by an arrival process, active
// over a window of virtual time.
type Cohort struct {
	// Name identifies the cohort in traces, hooks and stats. Must be
	// unique within a driver and non-empty.
	Name string
	// Mix is the cohort's query-class mix; weights need not sum to 1.
	Mix []workload.MixEntry
	// Rate is the cohort's offered rate over time, in queries per
	// second.
	Rate RateShape
	// Process realises Rate as arrival instants. Defaults to Poisson{}.
	// Stateful processes must not be shared between cohorts.
	Process Process
	// StartAt is the virtual time the cohort begins evaluating its
	// shape. Arrivals before StartAt are impossible by construction.
	StartAt float64
	// StopAt ends the cohort; zero means it runs until Driver.Stop.
	// Must exceed StartAt when set.
	StopAt float64
}

// Config carries driver-wide options.
type Config struct {
	// OnArrival, when non-nil, is called once per submission —
	// immediately before the scheduler sees it — with the cohort name,
	// the exact virtual time and the drawn query class. Same contract
	// as workload.Config.OnArrival: runs inline on the simulation
	// goroutine, must not draw randomness or schedule events. The
	// trace-v2 Recorder is the intended consumer.
	OnArrival func(cohort string, t float64, class metrics.ClassID)
}

// Driver runs open-loop cohorts against one application's scheduler.
// Unlike the closed-loop workload.Emulator there are no sessions and no
// think times: the offered load is exactly what the shapes and
// processes produce, whether or not the system keeps up. Use one driver
// per target application; an antagonist co-location runs a second
// driver against the OLAP application's scheduler.
type Driver struct {
	eng     *sim.Engine
	sched   *cluster.Scheduler
	cfg     Config
	cohorts []*cohortRun
	stopped bool

	interactions int64
	shed         int64
	errs         []error
}

type cohortRun struct {
	d      *Driver
	c      Cohort
	rng    *sim.RNG
	stopAt float64
	due    bool
	// stepFn is c.step bound once, so scheduling an arrival allocates
	// nothing.
	stepFn func()
}

// NewDriver validates the cohorts and attaches a driver to a simulation
// and a scheduler. It draws exactly one RNG fork from the engine's main
// stream per cohort, in cohort order — the fork-parity contract that
// NewReplayer mirrors (see the package documentation).
func NewDriver(eng *sim.Engine, sched *cluster.Scheduler, cohorts []Cohort, cfg Config) (*Driver, error) {
	if eng == nil || sched == nil {
		return nil, fmt.Errorf("wltemporal: driver needs a simulation and a scheduler")
	}
	if len(cohorts) == 0 {
		return nil, fmt.Errorf("wltemporal: driver needs at least one cohort")
	}
	d := &Driver{eng: eng, sched: sched, cfg: cfg}
	seen := make(map[string]bool, len(cohorts))
	for i, c := range cohorts {
		if c.Name == "" {
			return nil, fmt.Errorf("wltemporal: cohort %d has no name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("wltemporal: duplicate cohort %q", c.Name)
		}
		seen[c.Name] = true
		if c.Rate == nil {
			return nil, fmt.Errorf("wltemporal: cohort %q has no rate shape", c.Name)
		}
		total := 0.0
		for _, e := range c.Mix {
			if e.Weight > 0 {
				total += e.Weight
			}
		}
		if total <= 0 {
			return nil, fmt.Errorf("wltemporal: cohort %q mix has no positive weights", c.Name)
		}
		if c.Process == nil {
			c.Process = Poisson{}
		}
		stopAt := c.StopAt
		if stopAt == 0 {
			stopAt = math.Inf(1)
		} else if stopAt <= c.StartAt {
			return nil, fmt.Errorf("wltemporal: cohort %q stops at %v before it starts at %v",
				c.Name, c.StopAt, c.StartAt)
		}
		run := &cohortRun{d: d, c: c, rng: eng.RNG().Fork(), stopAt: stopAt}
		run.stepFn = run.step
		d.cohorts = append(d.cohorts, run)
	}
	return d, nil
}

// Start schedules every cohort's first step at its StartAt.
func (d *Driver) Start() {
	for _, c := range d.cohorts {
		d.eng.ScheduleKindAt(simcore.KindArrival, sim.Time(c.c.StartAt), c.stepFn)
	}
}

// Stop halts all cohorts: in-flight steps return without rescheduling.
func (d *Driver) Stop() { d.stopped = true }

// Interactions reports submissions the scheduler accepted.
func (d *Driver) Interactions() int64 { return d.interactions }

// Shed reports submissions admission control turned away. Open-loop
// cohorts do not retry: a shed arrival is lost offered load.
func (d *Driver) Shed() int64 { return d.shed }

// Errors returns scheduler errors (normally empty); admission
// rejections count under Shed instead.
func (d *Driver) Errors() []error { return d.errs }

// step is one cohort event: submit the arrival the previous draw
// promised (if any), then ask the process for the next one.
func (c *cohortRun) step() {
	if c.d.stopped {
		return
	}
	now := c.d.eng.Now().Seconds()
	if now >= c.stopAt {
		return
	}
	if c.due {
		c.due = false
		c.submit(now)
	}
	delay, arrival := c.c.Process.Next(c.rng, now, c.c.Rate(now))
	if delay <= 0 || math.IsNaN(delay) {
		delay = 1e-9
	}
	c.due = arrival
	c.d.eng.ScheduleKind(simcore.KindArrival, delay, c.stepFn)
}

func (c *cohortRun) submit(now float64) {
	class, ok := pick(c.rng, c.c.Mix)
	if !ok {
		return
	}
	if c.d.cfg.OnArrival != nil {
		c.d.cfg.OnArrival(c.c.Name, now, class)
	}
	if _, err := c.d.sched.Submit(now, class); err != nil {
		if _, rejected := admission.IsRejection(err); rejected {
			c.d.shed++
		} else {
			c.d.errs = append(c.d.errs, err)
		}
		return
	}
	c.d.interactions++
}
