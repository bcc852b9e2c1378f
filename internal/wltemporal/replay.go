package wltemporal

import (
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/metrics"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// SubmitFunc routes one replayed arrival to its scheduler. The replayer
// is scheduler-agnostic so a trace spanning several applications (an
// OLTP emulator plus an OLAP antagonist) replays through one function
// that dispatches on cohort name.
type SubmitFunc func(cohort string, now float64, class metrics.ClassID) error

// Replayer feeds a recorded Trace back into a simulation as
// simcore.KindArrival events at the recorded timestamps, bit for bit.
// Arrivals are chained — each event schedules the next — so the event
// heap holds one replay entry at a time regardless of trace length, and
// equal-timestamp arrivals fire in recorded (original execution) order.
type Replayer struct {
	eng     *sim.Engine
	trace   *Trace
	submit  SubmitFunc
	next    int
	stopped bool
	// stepFn is r.step bound once, so scheduling an arrival allocates
	// nothing.
	stepFn func()

	interactions int64
	shed         int64
	errs         []error
}

// NewReplayer attaches a replayer to a simulation. It draws exactly one
// RNG fork from the engine's main stream per trace cohort, in
// dictionary order, mirroring NewDriver's forks so the engine's main
// stream stays aligned with the recorded run (fork parity; see the
// package doc). The forks themselves go unused — replay draws no
// randomness.
func NewReplayer(eng *sim.Engine, trace *Trace, submit SubmitFunc) (*Replayer, error) {
	if eng == nil || trace == nil || submit == nil {
		return nil, fmt.Errorf("wltemporal: replayer needs a simulation, a trace and a submit function")
	}
	if len(trace.Cohorts) == 0 && len(trace.Arrivals) > 0 {
		return nil, fmt.Errorf("wltemporal: trace has arrivals but no cohorts")
	}
	for range trace.Cohorts {
		_ = eng.RNG().Fork()
	}
	r := &Replayer{eng: eng, trace: trace, submit: submit}
	r.stepFn = r.step
	return r, nil
}

// Start schedules the first arrival. An empty trace is a no-op.
func (r *Replayer) Start() { r.scheduleNext() }

// Stop halts replay: no further arrivals fire.
func (r *Replayer) Stop() { r.stopped = true }

// Fed reports how many arrivals have been submitted so far.
func (r *Replayer) Fed() int64 { return r.interactions + r.shed + int64(len(r.errs)) }

// Interactions reports submissions the schedulers accepted.
func (r *Replayer) Interactions() int64 { return r.interactions }

// Shed reports submissions admission control turned away.
func (r *Replayer) Shed() int64 { return r.shed }

// Errors returns submit errors that were not admission rejections.
func (r *Replayer) Errors() []error { return r.errs }

func (r *Replayer) scheduleNext() {
	if r.stopped || r.next >= len(r.trace.Arrivals) {
		return
	}
	at := r.trace.Arrivals[r.next].T
	r.eng.ScheduleKindAt(simcore.KindArrival, sim.Time(at), r.stepFn)
}

func (r *Replayer) step() {
	if r.stopped {
		return
	}
	a := r.trace.Arrivals[r.next]
	r.next++
	err := r.submit(r.trace.Cohorts[a.Cohort], r.eng.Now().Seconds(), r.trace.Classes[a.Class])
	switch {
	case err == nil:
		r.interactions++
	default:
		if _, rejected := admission.IsRejection(err); rejected {
			r.shed++
		} else {
			r.errs = append(r.errs, err)
		}
	}
	r.scheduleNext()
}
