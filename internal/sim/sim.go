// Package sim provides a deterministic discrete-event simulation engine.
//
// All experiments in this repository run in virtual time: a central event
// loop pops the earliest pending event, advances the clock to its timestamp
// and executes its callback. Callbacks may schedule further events. Given
// the same seed, a simulation is fully deterministic, which makes the
// reproduction of the paper's measurements repeatable and testable.
//
// The queue and run loop themselves live in internal/simcore (a min-heap
// keyed on (virtual time, push sequence) with FIFO tie-breaking and lazy
// generation-counter cancellation); this package binds that substrate to
// a seeded random source and the Event/Time API the rest of the
// repository schedules against. ScheduleKind tags events with their
// simcore.Kind (arrival, phase-complete, interval-tick, fault,
// control-action, message) so a run can account for its event
// composition; plain Schedule is the generic-kind shorthand.
//
// Concurrency: the event loop is strictly single-threaded, and every
// object scheduled on it (servers, engines, emulators, the controller)
// is owned by the goroutine calling Run/RunUntil. That single ownership
// is what makes virtual time deterministic.
package sim

import (
	"fmt"
	"time"

	"outlierlb/internal/simcore"
)

// Time is a point in virtual time, measured in seconds since simulation
// start. Durations are plain float64 seconds as well; the simulation never
// consults the wall clock.
type Time float64

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Duration converts t to a time.Duration for human-readable reporting.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

func (t Time) String() string {
	return fmt.Sprintf("%.3fs", float64(t))
}

// Event is a handle on a scheduled callback, returned by value so
// scheduling allocates nothing. The zero Event is inert: Cancel does
// nothing and At reports 0.
type Event struct {
	at    Time
	timer simcore.Timer
}

// Cancel marks the event so its callback will not run. Cancelling an
// already-executed event is a no-op. Cancellation is lazy (a generation
// bump, O(1)): the dead entry is discarded when it reaches the head of
// the queue.
func (e Event) Cancel() { e.timer.Cancel() }

// At reports the virtual time the event is scheduled for.
func (e Event) At() Time { return e.at }

// Engine is a discrete-event simulation loop. The zero value is not ready
// to use; construct engines with NewEngine.
type Engine struct {
	loop *simcore.Loop
	rng  *RNG
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{loop: simcore.NewLoop(), rng: NewRNG(seed)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return Time(e.loop.Now()) }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// treated as zero. The returned event may be cancelled.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	return e.ScheduleKind(simcore.KindGeneric, delay, fn)
}

// ScheduleKind is Schedule with an explicit event kind, so arrivals,
// interval ticks, faults and control actions are countable in the
// queue's per-kind statistics.
func (e *Engine) ScheduleKind(kind simcore.Kind, delay float64, fn func()) Event {
	t := e.loop.Schedule(delay, kind, fn)
	at := e.loop.Now()
	if delay > 0 {
		at += delay
	}
	return Event{at: Time(at), timer: t}
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now. The timestamp is used bit-exactly (no now+delta round
// trip), so replaying a recorded event time reproduces the original
// schedule to the last ulp.
func (e *Engine) ScheduleAt(at Time, fn func()) Event {
	return e.ScheduleKindAt(simcore.KindGeneric, at, fn)
}

// ScheduleKindAt is ScheduleAt with an explicit event kind.
func (e *Engine) ScheduleKindAt(kind simcore.Kind, at Time, fn func()) Event {
	t := e.loop.ScheduleAt(float64(at), kind, fn)
	eventAt := at
	if float64(at) < e.loop.Now() {
		eventAt = Time(e.loop.Now())
	}
	return Event{at: eventAt, timer: t}
}

// Pending reports the number of events waiting to run (including cancelled
// events not yet drained).
func (e *Engine) Pending() int { return e.loop.Pending() }

// QueueStats reports the event queue's cumulative traffic counters:
// pushes and pops overall and by kind, cancellations, and heap depth.
func (e *Engine) QueueStats() simcore.Stats { return e.loop.Queue().Stats() }

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
func (e *Engine) Step() bool { return e.loop.Step() }

// Run executes events until the queue is empty.
func (e *Engine) Run() { e.loop.Run() }

// RunUntil executes events with timestamps ≤ end, then advances the clock
// to end. Events scheduled beyond end remain pending.
func (e *Engine) RunUntil(end Time) { e.loop.RunUntil(float64(end)) }

// RunFor executes events for d seconds of virtual time from now.
func (e *Engine) RunFor(d float64) { e.loop.RunFor(d) }
