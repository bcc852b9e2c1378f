// Package workload drives applications with synthetic clients: a
// closed-loop client emulator (sessions with think times), configurable
// interaction mixes, and time-varying load functions such as the sinusoid
// with random noise used in the paper's §5.2 experiment. The temporal
// layer — open-loop cohort drivers, diurnal/flash-crowd shapes and the
// trace-v2 arrival recorder/replayer — lives in internal/wltemporal and
// builds on this package's MixEntry and OnArrival surfaces; WORKLOADS.md
// is the cookbook covering both.
//
// Concurrency and ownership: emulators schedule their sessions on the
// simulation loop (internal/sim) and are single-owner like everything in
// virtual time; the "clients" are concurrent only in simulated time, not
// in real threads. An emulator owns its slot bookkeeping and its forked
// RNG stream (NewEmulator draws exactly one fork from the engine's main
// stream — replayers mirror that draw for stream parity). The OnArrival
// hook runs inline on the simulation goroutine at submit time and must
// not retain the callback arguments beyond the call or touch the RNG;
// recorders append to plain slices, which is safe because nothing else
// runs concurrently in virtual time.
package workload

import (
	"fmt"
	"math"

	"outlierlb/internal/admission"
	"outlierlb/internal/cluster"
	"outlierlb/internal/metrics"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// LoadFunction maps virtual time to the target number of concurrent
// clients presented to the application.
type LoadFunction func(t float64) int

// Constant returns a load function holding n clients forever.
func Constant(n int) LoadFunction {
	return func(float64) int { return n }
}

// Sinusoid returns the paper's §5.2 load shape: base + amplitude *
// sin(2πt/period), never below zero.
func Sinusoid(base, amplitude, period float64) LoadFunction {
	return func(t float64) int {
		n := base + amplitude*math.Sin(2*math.Pi*t/period)
		if n < 0 {
			n = 0
		}
		return int(n)
	}
}

// Step returns a load function that is n0 clients before t0 and n1 from
// t0 on. The boundary is closed on the right: Step(a, b, t0) evaluated
// at exactly t0 returns n1. An emulator adjustment tick scheduled at
// exactly t0 therefore already sees the post-step population.
func Step(n0, n1 int, t0 float64) LoadFunction {
	return func(t float64) int {
		if t < t0 {
			return n0
		}
		return n1
	}
}

// Pulse returns a load function that is n0 clients outside the
// half-open window [t0, t1) and n1 inside — the overload experiments'
// shape: nominal load, a burst, then back to nominal. The edges follow
// the half-open convention exactly: at t0 the pulse is already on (n1),
// at t1 it is already off (n0), so back-to-back pulses
// Pulse(..., a, b) and Pulse(..., b, c) never double-count the shared
// instant b. A degenerate window (t1 ≤ t0) never fires.
func Pulse(n0, n1 int, t0, t1 float64) LoadFunction {
	return func(t float64) int {
		if t >= t0 && t < t1 {
			return n1
		}
		return n0
	}
}

// MixEntry gives one query class's share of the interaction mix.
type MixEntry struct {
	ID     metrics.ClassID
	Weight float64
}

// adjustEvery is how often, in seconds, an emulator reconciles its
// running client population with Config.Load.
const adjustEvery = 1.0

// Config controls an emulator.
type Config struct {
	// Mix is the interaction mix; weights need not sum to 1.
	Mix []MixEntry
	// ThinkTime is the mean client think time between interactions in
	// seconds (exponentially distributed). Defaults to 1.
	ThinkTime float64
	// ThinkNoise adds ±ThinkNoise fractional uniform jitter to each think
	// draw, modelling the paper's "random noise on top of the load
	// function by randomly varying the session time and thinking time".
	ThinkNoise float64
	// Load is the target client population over time. Defaults to
	// Constant(1).
	Load LoadFunction
	// OnArrival, when non-nil, is called once per interaction submission
	// — immediately before the scheduler sees it, with the submission's
	// virtual time and query class. Shed-and-retried interactions invoke
	// it again on the retry, so a recorder capturing this stream replays
	// the exact offered load, not just the admitted one. The hook must
	// not draw from any RNG or schedule events; the trace-v2 recorder
	// (internal/wltemporal) is the intended consumer.
	OnArrival func(t float64, class metrics.ClassID)
}

// Emulator runs closed-loop clients against one application's scheduler
// inside a simulation engine.
type Emulator struct {
	cfg     Config
	sim     *sim.Engine
	sched   *cluster.Scheduler
	rng     *sim.RNG
	total   float64 // sum of positive mix weights
	target  int
	running int
	live    []bool // live[slot] reports whether a client occupies the slot
	// steps[slot] is the slot's session callback, built once when the
	// slot is created so scheduling an arrival allocates nothing;
	// adjustFn is e.adjust bound once for the same reason.
	steps    []func()
	adjustFn func()
	stopped  bool

	// Interactions counts completed client interactions (the paper's
	// WIPS numerator); shed counts interactions turned away by admission
	// control (the client survives and retries after a think time).
	interactions int64
	shed         int64
	errs         []error
}

// NewEmulator attaches an emulator to a simulation and a scheduler.
func NewEmulator(engine *sim.Engine, sched *cluster.Scheduler, cfg Config) (*Emulator, error) {
	if engine == nil || sched == nil {
		return nil, fmt.Errorf("workload: emulator needs a simulation and a scheduler")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("workload: empty interaction mix")
	}
	total := mixTotal(cfg.Mix)
	if total <= 0 {
		return nil, fmt.Errorf("workload: mix has no positive weights")
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 1
	}
	if cfg.Load == nil {
		cfg.Load = Constant(1)
	}
	e := &Emulator{cfg: cfg, sim: engine, sched: sched, rng: engine.RNG().Fork(), total: total}
	e.adjustFn = e.adjust
	return e, nil
}

// Start begins the control loop; clients ramp to the load function's
// target at each adjustment tick.
func (e *Emulator) Start() {
	e.adjust()
}

// Stop halts the emulator: running clients end their sessions at the next
// decision point and no new clients start.
func (e *Emulator) Stop() { e.stopped = true }

// Interactions reports completed interactions so far.
func (e *Emulator) Interactions() int64 { return e.interactions }

// Errors returns scheduler errors encountered by clients (normally empty).
// Admission rejections are not errors; they count under Shed.
func (e *Emulator) Errors() []error { return e.errs }

// Shed reports how many interactions admission control turned away.
func (e *Emulator) Shed() int64 { return e.shed }

// Running reports the current client population.
func (e *Emulator) Running() int { return e.running }

func (e *Emulator) adjust() {
	if e.stopped {
		return
	}
	e.target = e.cfg.Load(e.sim.Now().Seconds())
	for slot := len(e.live); slot < e.target; slot++ {
		e.live = append(e.live, false)
		e.steps = append(e.steps, func() { e.clientStep(slot) })
	}
	// Occupy free slots below the target. Clients exit on their own when
	// their slot number rises above a later, lower target, so slots are
	// reused across load swings.
	for slot := 0; slot < e.target && e.running < e.target; slot++ {
		if e.live[slot] {
			continue
		}
		e.live[slot] = true
		e.running++
		// Stagger session starts uniformly over the adjustment window so
		// a ramp-up does not arrive as a thundering herd.
		delay := e.rng.Uniform(0, adjustEvery)
		e.sim.ScheduleKind(simcore.KindArrival, delay, e.steps[slot])
	}
	e.sim.ScheduleKind(simcore.KindIntervalTick, adjustEvery, e.adjustFn)
}

// mixTotal sums mix's positive weights.
func mixTotal(mix []MixEntry) float64 {
	total := 0.0
	for _, entry := range mix {
		if entry.Weight > 0 {
			total += entry.Weight
		}
	}
	return total
}

// pick draws one class from the mix, whose positive weights sum to
// e.total (> 0, checked by NewEmulator).
func (e *Emulator) pick() metrics.ClassID {
	r := e.rng.Float64() * e.total
	for _, entry := range e.cfg.Mix {
		if entry.Weight <= 0 {
			continue
		}
		r -= entry.Weight
		if r < 0 {
			return entry.ID
		}
	}
	return e.cfg.Mix[len(e.cfg.Mix)-1].ID
}

func (e *Emulator) think() float64 {
	d := e.rng.Exp(e.cfg.ThinkTime)
	if e.cfg.ThinkNoise > 0 {
		d *= 1 + e.rng.Uniform(-e.cfg.ThinkNoise, e.cfg.ThinkNoise)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// clientStep is one iteration of the session loop of the client in slot.
func (e *Emulator) clientStep(slot int) {
	if e.stopped || slot >= e.target {
		// Session ends: the population shrank below this client's slot.
		e.live[slot] = false
		e.running--
		return
	}
	now := e.sim.Now().Seconds()
	class := e.pick()
	if e.cfg.OnArrival != nil {
		e.cfg.OnArrival(now, class)
	}
	done, err := e.sched.Submit(now, class)
	if err != nil {
		if _, rejected := admission.IsRejection(err); rejected {
			// Load shedding is the system working as designed, not a
			// client failure: the session backs off one think time and
			// tries again, like a user retrying a busy site.
			e.shed++
			e.sim.ScheduleKind(simcore.KindArrival, e.think(), e.steps[slot])
			return
		}
		e.errs = append(e.errs, err)
		e.live[slot] = false
		e.running--
		return
	}
	e.interactions++
	wait := (done - now) + e.think()
	e.sim.ScheduleKind(simcore.KindArrival, wait, e.steps[slot])
}
