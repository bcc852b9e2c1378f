package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"outlierlb/internal/cluster"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// Config tunes the selective retuning controller.
type Config struct {
	// Interval is the measurement interval in seconds. Default 10.
	Interval float64
	// Fences are the IQR outlier fences. Default 1.5 / 3.0.
	Fences Fences
	// CPUSaturation is the mean core utilization treated as CPU
	// saturation. Default 0.85.
	CPUSaturation float64
	// DiskSaturation is the disk utilization treated as I/O interference
	// (when CPU is not saturated). Default 0.85.
	DiskSaturation float64
	// MRCChangeFactor is the relative change in MRC memory parameters
	// considered significant. Default 1.6: window-based MRC estimates
	// carry sampling noise well above the paper's nominal 1.25, and the
	// §5.3 index-drop signal (a 1.9x acceptable-memory change) clears
	// this bar comfortably.
	MRCChangeFactor float64
	// MRCThreshold is the acceptable-miss-ratio threshold above the ideal
	// miss ratio. Default mrc.DefaultThreshold.
	MRCThreshold float64
	// TopK is how many heavyweight classes to investigate when no outlier
	// contexts are found. Default 3.
	TopK int
	// FallbackAfter is the number of consecutive violating intervals
	// after which the controller falls back to coarse-grained isolation.
	// Default 4.
	FallbackAfter int
	// AutoIOHeuristic enables automatic application of the I/O
	// interference heuristic. The paper's prototype diagnoses this case
	// manually (§5.5: "our current techniques do not allow us to automate
	// the diagnosis of this case"), so automation is opt-in.
	AutoIOHeuristic bool
	// ShrinkBelow enables dynamic scale-down: when an application meets
	// its SLA with ample margin and every one of its servers runs below
	// this CPU utilization, one replica is released back to the pool.
	// Zero disables shrinking.
	ShrinkBelow float64
	// SettleIntervals is how many measurement intervals the controller
	// waits after taking an action for an application before diagnosing
	// it again, giving caches and queues time to settle (retuning is
	// incremental: one action, then observe). Default 2.
	SettleIntervals int
	// MRCSampleCount is the fixed number of recent page accesses every
	// MRC estimate is computed from. Default core.MRCSamples.
	MRCSampleCount int

	// MaintainEvery is how many stable intervals pass between quota
	// maintenance sweeps (§1 suggests near-optimal reshuffling belongs
	// in "periodic system maintenance"): enforced quotas are re-derived
	// from fresh MRCs and adjusted, or dissolved when the workload that
	// justified them has reverted. Zero disables maintenance.
	MaintainEvery int

	// SignatureMaxAge bounds, in seconds, how stale a stable-state
	// signature may be and still anchor outlier detection. When a metric
	// blackout (or a long instability) has kept the signature from
	// refreshing past this age, outlier detection is skipped in favour of
	// the top-k heavyweight path and a degraded-analysis event is
	// emitted — comparing fresh counters against an ancient baseline
	// produces confident nonsense. Zero means no bound.
	SignatureMaxAge float64

	// ShrinkAfter is how many consecutive stable intervals an application
	// must accumulate before a low-load replica release is considered.
	// Default 1 (shrink on the first qualifying interval); chaos
	// configurations raise it so a flapping replica's alternating
	// pressure cannot drive provision/decommission oscillation.
	ShrinkAfter int

	// FrozenMetricsAfter enables the Byzantine-metrics guard: a server
	// whose utilization sample, or an engine whose snapshot, repeats
	// bit-identically for more than this many consecutive ticks (while
	// non-idle) is treated as lying and handled like a metric blackout —
	// skipped, narrated as degraded analysis, gap-normalized on
	// recovery. Real counters essentially never repeat exactly; a wedged
	// or malicious exporter re-delivering stale numbers does. Zero (the
	// default) disables the guard, keeping default runs bit-identical.
	FrozenMetricsAfter int

	// ClockGuard enables the controller clock-skew defence: a tick whose
	// measured interval is wildly off the configured Interval (under a
	// third or over three times it, or non-positive) is treated as a
	// clock anomaly — the interval is clamped to the configured length
	// and per-engine snapshot gaps are reset, so skewed wall-clock
	// arithmetic cannot inflate rates and fabricate outliers. Off by
	// default.
	ClockGuard bool

	// Ablation switches (off in normal operation):

	// PreferMigration disables quota enforcement: every feasible quota
	// plan is treated as infeasible, so problem classes always migrate to
	// another replica. Used to quantify the quota-vs-migrate trade-off
	// discussed in §3.3.2.
	PreferMigration bool
	// CoarseOnly disables the fine-grained memory diagnosis entirely: the
	// controller only reacts with CPU provisioning and the coarse-grained
	// isolation fallback, approximating the prior-work baseline the paper
	// argues against.
	CoarseOnly bool
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 10
	}
	if c.Fences.Inner <= 0 {
		c.Fences = DefaultFences()
	}
	if c.CPUSaturation <= 0 {
		c.CPUSaturation = 0.85
	}
	if c.DiskSaturation <= 0 {
		c.DiskSaturation = 0.85
	}
	if c.MRCChangeFactor <= 0 {
		c.MRCChangeFactor = 1.6
	}
	if c.MRCThreshold <= 0 {
		c.MRCThreshold = mrc.DefaultThreshold
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.FallbackAfter <= 0 {
		c.FallbackAfter = 4
	}
	if c.SettleIntervals <= 0 {
		c.SettleIntervals = 2
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 1
	}
}

// ActionKind labels a retuning action.
type ActionKind string

// The retuning actions the controller can take.
const (
	ActionProvision    ActionKind = "provision-replica"   // CPU saturation → new replica
	ActionQuota        ActionKind = "enforce-quota"       // feasible quota plan applied
	ActionReschedule   ActionKind = "reschedule-class"    // class moved to another replica
	ActionIOMove       ActionKind = "io-move-class"       // I/O heuristic moved a class
	ActionFallback     ActionKind = "coarse-isolate"      // coarse-grained isolation
	ActionShrink       ActionKind = "release-replica"     // scale-down on low load
	ActionLockReport   ActionKind = "lock-contention"     // advisory: lock waits dominate
	ActionMaintain     ActionKind = "maintain-quota"      // periodic quota adjustment/removal
	ActionExhausted    ActionKind = "resources-exhausted" // wanted to act, no servers left
	ActionShedClass    ActionKind = "shed-class"          // brownout: lowest-impact class shed
	ActionReadmitClass ActionKind = "readmit-class"       // brownout: shed class re-admitted
)

// Action is one recorded retuning decision.
type Action struct {
	Time   float64
	Kind   ActionKind
	App    string
	Server string
	Class  string
	Detail string
}

func (a Action) String() string {
	return fmt.Sprintf("t=%.0fs %s app=%s server=%s class=%s %s",
		a.Time, a.Kind, a.App, a.Server, a.Class, a.Detail)
}

// AllocationSample records an application's replica count at one tick —
// the data behind Figure 3(b).
type AllocationSample struct {
	Time     float64
	App      string
	Replicas int
}

// Controller is the paper's optimizer: it closes measurement intervals,
// maintains stable-state signatures, and upon SLA violations runs the
// incremental diagnosis of §3.3 — CPU saturation check, outlier context
// detection, MRC recomputation, quota solving, class rescheduling, and
// coarse-grained fallback.
type Controller struct {
	sim       *sim.Engine
	mgr       *cluster.Manager
	cfg       Config
	sigs      *SignatureStore
	analyzers map[*engine.Engine]*LogAnalyzer

	actions      []Action
	allocation   []AllocationSample
	violStreak   map[string]int
	cooldown     map[string]int // per-app intervals to wait before re-diagnosing
	stableStreak map[string]int // consecutive stable intervals, for maintenance
	// reconfirm marks class@server diagnoses whose remedy was vetoed or
	// rolled back by the action watchdog: confirmProblems treats an
	// unchanged recorded MRC as already-acted-upon, which would silence
	// the diagnosis forever even though nothing was repaired. The flag
	// survives stable-interval signature refreshes (which re-record the
	// same params) and clears on the next confirmation. Only guard paths
	// write it, so guard-free runs never consult a non-empty map.
	reconfirm map[string]bool
	lastTick  float64
	started   bool

	// mu guards the debug-endpoint mutators (Suspend, SetClockOffset)
	// against racing an in-flight tick or a message-driven ack handler:
	// Tick captures one consistent view of both knobs at its top, and
	// off-tick readers go through the same lock.
	mu        sync.Mutex
	suspended bool

	// cp is the message-passing control plane: snapshot collection,
	// heartbeats and every remote retuning action go over its ctrlnet
	// network. NewController attaches one over a perfect channel;
	// AttachControlPlane replaces it.
	cp *ControlPlane

	// observer receives the decision trace; observing caches whether it
	// is a real sink, so the tick path only builds event payloads (maps,
	// slices, histogram copies) when someone is listening.
	observer  obs.Observer
	observing bool

	// lastSnaps retains the most recent tick's per-engine snapshots so
	// DiagnoseServerLive can re-run the (otherwise destructive) outlier
	// analysis without consuming a fresh interval.
	lastSnaps   map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector
	lastSnapsAt float64

	// guard, when non-nil, is the action watchdog consulted around every
	// retuning action (see ActionGuard). policy, when non-nil, replaces
	// the inline shed/reschedule/readmit choices (see Policy). Both nil
	// by default: the historical code paths run untouched.
	guard  ActionGuard
	policy Policy

	// clockOffset skews the controller's notion of virtual time — the
	// clock-skew fault surface. The simulation itself is unaffected;
	// only this controller's interval arithmetic sees the wrong clock.
	clockOffset float64

	// Frozen-metrics guard state (allocated lazily, only when
	// FrozenMetricsAfter > 0): last fingerprints and repeat counts.
	frozenSrv map[*server.Server]*frozenSample
	frozenEng map[*engine.Engine]*frozenSnap
}

// frozenSample is one server's last utilization fingerprint and how
// many consecutive ticks it has repeated bit-identically.
type frozenSample struct {
	cpu, disk float64
	repeats   int
}

// frozenSnap is one engine's last snapshot hash and repeat count.
type frozenSnap struct {
	hash    uint64
	repeats int
}

// NewController wires a controller to a simulation and a cluster manager.
// The controller reaches the engines through a control plane over a
// perfect channel, which delivers inline, schedules no event and makes no
// random draw; AttachControlPlane replaces it with one over a network of
// the caller's.
func NewController(s *sim.Engine, mgr *cluster.Manager, cfg Config) (*Controller, error) {
	if s == nil || mgr == nil {
		return nil, fmt.Errorf("core: controller needs a simulation and a manager")
	}
	cfg.fill()
	c := &Controller{
		sim:          s,
		mgr:          mgr,
		cfg:          cfg,
		sigs:         NewSignatureStore(),
		analyzers:    make(map[*engine.Engine]*LogAnalyzer),
		violStreak:   make(map[string]int),
		cooldown:     make(map[string]int),
		stableStreak: make(map[string]int),
		reconfirm:    make(map[string]bool),
		observer:     obs.Nop{},
	}
	c.AttachControlPlane(ctrlnet.New(s, 0), CtrlConfig{})
	return c, nil
}

// SetObserver attaches an observer to the decision trace. Passing nil
// (or obs.Nop{}) detaches: the tick path reverts to building no event
// payloads.
func (c *Controller) SetObserver(o obs.Observer) {
	if o == nil {
		o = obs.Nop{}
	}
	c.observer = o
	_, nop := o.(obs.Nop)
	c.observing = !nop
}

// Signatures exposes the stable-state signature store.
func (c *Controller) Signatures() *SignatureStore { return c.sigs }

// Actions returns the retuning actions taken so far, in order.
func (c *Controller) Actions() []Action { return c.actions }

// AllocationHistory returns per-tick replica counts per application.
func (c *Controller) AllocationHistory() []AllocationSample { return c.allocation }

// Suspend toggles observe-only mode: intervals are still closed and
// stable-state signatures recorded, but no retuning actions are taken.
// Experiments use it to measure a damaged configuration before allowing
// the controller to repair it.
func (c *Controller) Suspend(s bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.suspended = s
}

// SetGuard attaches (or, with nil, detaches) the action watchdog
// consulted around every retuning action.
func (c *Controller) SetGuard(g ActionGuard) { c.guard = g }

// SetPolicy installs (or, with nil, removes) a decision policy. Nil —
// the default — keeps the historical inline decisions byte-for-byte.
func (c *Controller) SetPolicy(p Policy) { c.policy = p }

// SetClockOffset skews the controller's clock by o seconds of virtual
// time — the clock-skew fault's injection point. The simulation and the
// data plane keep true time; only this controller's interval arithmetic
// is lied to.
func (c *Controller) SetClockOffset(o float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clockOffset = o
}

// ClockOffset reports the current controller clock skew.
func (c *Controller) ClockOffset() float64 { return c.curClockOffset() }

func (c *Controller) curClockOffset() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clockOffset
}

// guardAllows consults the attached watchdog before an action's side
// effects run; true (always, when no guard is attached) lets it
// proceed. Vetoes are narrated by the guard itself.
func (c *Controller) guardAllows(now float64, kind ActionKind, app, server, class string) bool {
	if c.guard == nil {
		return true
	}
	ok, _ := c.guard.Allow(now, kind, app, server, class)
	return ok
}

// guardCommitted registers an executed action with the watchdog for
// post-action fitness evaluation; undo reverses it (nil: irreversible).
func (c *Controller) guardCommitted(a Action, undo func() error) {
	if c.guard != nil {
		c.guard.Committed(a, undo)
	}
}

// Start schedules the periodic measurement/diagnosis tick.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.lastTick = c.sim.Now().Seconds()
	// The control plane's agent rounds are scheduled first so that at
	// every shared timestamp the round's event precedes the tick's (FIFO
	// tie-break): reports over a perfect channel arrive at the tick that
	// consumes them.
	c.cp.start()
	var tick func()
	tick = func() {
		c.Tick()
		c.sim.ScheduleKind(simcore.KindIntervalTick, c.cfg.Interval, tick)
	}
	c.sim.ScheduleKind(simcore.KindIntervalTick, c.cfg.Interval, tick)
}

func (c *Controller) analyzer(eng *engine.Engine) *LogAnalyzer {
	a := c.analyzers[eng]
	if a == nil {
		a = NewLogAnalyzer(eng)
		a.SetSamples(c.cfg.MRCSampleCount)
		c.analyzers[eng] = a
	}
	return a
}

func (c *Controller) record(a Action) {
	c.actions = append(c.actions, a)
	c.observer.Event(obs.Event{
		Time: a.Time, Kind: obs.EventKind(a.Kind),
		App: a.App, Server: a.Server, Class: a.Class, Cause: a.Detail,
	})
	if a.App != "" && a.Kind != ActionShrink {
		c.cooldown[a.App] = c.cfg.SettleIntervals
	}
}

// cooldownServer puts every application with a replica on srv into its
// settle period: an action that reshuffles one engine perturbs all of
// its tenants, so their next intervals are not diagnostic.
func (c *Controller) cooldownServer(name string) {
	for _, sched := range c.mgr.Schedulers() {
		for _, r := range sched.Replicas() {
			if r.Server().Name() == name {
				c.cooldown[sched.App().Name] = c.cfg.SettleIntervals
				break
			}
		}
	}
}

// Tick closes one measurement interval for every application and reacts
// to violations. Exposed so tests and tools can drive the controller
// manually instead of through Start.
func (c *Controller) Tick() {
	// One consistent view of the debug-mutable knobs per tick: Suspend
	// and SetClockOffset may be called from another goroutine (the debug
	// endpoints) while this tick is in flight.
	c.mu.Lock()
	suspended, clockOffset := c.suspended, c.clockOffset
	c.mu.Unlock()
	now := c.sim.Now().Seconds() + clockOffset
	if c.guard != nil {
		c.guard.BeginTick(now)
	}
	c.cp.tickBegin(now)
	// Clock-skew defence: a measured interval wildly off the configured
	// cadence means the controller's clock jumped, not that time passed.
	// Rates divided by a skewed window inflate or vanish — so the window
	// is clamped to the configured length and the per-engine snapshot
	// gaps are ignored this tick. The SLA tracker's interval close
	// consumes whatever samples accumulated regardless of the window
	// passed; only throughput normalization and the stamps use it.
	clockAnomaly := false
	if c.cfg.ClockGuard {
		raw := now - c.lastTick
		if raw <= c.cfg.Interval/3 || raw >= 3*c.cfg.Interval {
			clockAnomaly = true
			if c.observing {
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventDegradedAnalysis,
					Cause: fmt.Sprintf("controller clock anomaly: measured interval %.3gs vs configured %.3gs; window clamped",
						raw, c.cfg.Interval),
					Fields: map[string]float64{"measured_interval": raw},
				})
			}
		}
	}
	intervalStart := c.lastTick
	if clockAnomaly {
		intervalStart = now - c.cfg.Interval
	}

	// Consume the snapshot reports the engines pushed over the control
	// channel: each server's agent drained its engines once this interval,
	// through the stats flavour when an observer is attached so per-class
	// latency distributions and pool state reach the registry. Servers
	// whose monitoring is blacked out, or that sent no fresh report,
	// contribute nothing this tick — no vmstat sample, no engine
	// snapshots — and the controller degrades to diagnosing without them
	// rather than mistaking absent data for idle machines.
	snaps := make(map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector)
	cpu := make(map[*server.Server]float64)
	disk := make(map[*server.Server]float64)
	blackout := make(map[*server.Server]bool)
	c.cp.collect(now, clockAnomaly, snaps, cpu, disk, blackout)
	c.lastSnaps, c.lastSnapsAt = snaps, now

	var violated []*cluster.Scheduler
	for _, sched := range c.mgr.Schedulers() {
		app := sched.App().Name
		iv := sched.Tracker().CloseInterval(intervalStart, now)
		c.allocation = append(c.allocation, AllocationSample{
			Time: now, App: app, Replicas: len(sched.Replicas()),
		})
		if c.observing {
			c.observer.IntervalClosed(obs.IntervalObs{
				Time: now, App: app,
				AvgLatency: iv.AvgLatency, P95Latency: iv.P95Latency, P99Latency: iv.P99Latency,
				Throughput: iv.Throughput, Queries: iv.Queries, Met: iv.Met,
				Replicas: len(sched.Replicas()),
			})
			if adm := sched.Admission(); adm != nil {
				c.observer.AdmissionSampled(adm.Snapshot(now, app))
			}
		}
		if c.guard != nil {
			// Feed the watchdog's fitness history and run due
			// post-action evaluations; rollbacks execute here, between
			// interval closes, never mid-diagnosis.
			var rejected int64
			if adm := sched.Admission(); adm != nil {
				rejected = adm.TotalRejected()
			}
			c.guard.IntervalClosed(now, app, iv, rejected)
		}
		if iv.Queries == 0 {
			continue
		}
		if iv.Met {
			c.violStreak[app] = 0
			c.stableStreak[app]++
			if adm := sched.Admission(); adm != nil && !suspended &&
				c.guardAllows(now, ActionReadmitClass, app, "", "") {
				// The readmission mutates the application's admission gate,
				// which lives with its lead replica's engine: a remote
				// action when a control plane is attached.
				srvName := ""
				if reps := sched.Replicas(); len(reps) > 0 {
					srvName = reps[0].Server().Name()
				}
				apply := func() any {
					id, ok := metrics.ClassID{}, false
					if c.policy != nil {
						id, ok = adm.ReadmitTick(c.policy.ReadmitChoice)
					} else {
						id, ok = adm.StableTick()
					}
					if !ok {
						return nil
					}
					return id
				}
				finish := func(at float64, res any) {
					id, ok := res.(metrics.ClassID)
					if !ok {
						return
					}
					a := Action{Time: at, Kind: ActionReadmitClass, App: app, Class: id.Class,
						Detail: fmt.Sprintf("SLA met for %d consecutive interval(s); class re-admitted",
							adm.Config().ReadmitAfter)}
					c.record(a)
					reshed := id
					c.guardCommitted(a, func() error {
						if _, ok := adm.ShedClass(reshed); !ok {
							return fmt.Errorf("re-shed of %v refused", reshed)
						}
						return nil
					})
				}
				c.cp.invoke(now, srvName, app, string(ActionReadmitClass), apply, finish)
			}
			c.recordStable(now, sched, snaps)
			c.maybeShrink(now, sched, iv.AvgLatency, cpu, blackout)
			if c.cfg.MaintainEvery > 0 && c.stableStreak[app]%c.cfg.MaintainEvery == 0 {
				c.maintainQuotas(now, sched)
			}
		} else {
			c.stableStreak[app] = 0
			c.violStreak[app]++
			if adm := sched.Admission(); adm != nil {
				adm.ViolationTick()
			}
			if c.observing {
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventViolation, App: app,
					Cause: fmt.Sprintf("avg latency %.3fs over SLA %.2fs (streak %d)",
						iv.AvgLatency, sched.App().SLA.MaxAvgLatency, c.violStreak[app]),
					Fields: map[string]float64{
						"avg_latency": iv.AvgLatency,
						"p95_latency": iv.P95Latency,
						"queries":     float64(iv.Queries),
					},
				})
			}
			violated = append(violated, sched)
		}
	}
	// One retuning action per tick, across all applications: the
	// diagnosis is incremental — act, then observe the next interval.
	acted := false
	// A force-shed policy (the reject-all pathological template) sheds
	// on every eligible tick, violated or not, in place of diagnosis —
	// unless the watchdog's storm circuit has opened for the app.
	if c.policy != nil && c.policy.ForceShed() && !suspended {
		for _, sched := range c.mgr.Schedulers() {
			app := sched.App().Name
			if acted {
				break
			}
			if c.guard != nil && c.guard.Posture(app) != GuardNormal {
				continue
			}
			if c.cooldown[app] > 0 {
				c.cooldown[app]--
				continue
			}
			if c.brownoutShed(now, sched, snaps) {
				acted = true
				c.violStreak[app] = 0
			}
		}
	}
	for _, sched := range violated {
		app := sched.App().Name
		if suspended {
			continue
		}
		if c.policy != nil && c.policy.ForceShed() {
			continue // the force-shed loop above owns all actions
		}
		if c.guard != nil {
			switch c.guard.Posture(app) {
			case GuardSuspend:
				continue
			case GuardFallback:
				// The storm circuit's terminal mitigation: reverting
				// individual actions stopped helping, so coarse-isolate
				// once and stay suspended while things settle.
				if !acted {
					c.coarseFallback(now, sched)
					acted = true
					c.violStreak[app] = 0
				}
				continue
			}
		}
		if c.cooldown[app] > 0 {
			c.cooldown[app]--
			continue
		}
		if acted {
			continue
		}
		acted = c.diagnose(now, sched, snaps, cpu, disk, blackout)
		if acted {
			// The configuration changed; violation streaks restart so the
			// coarse fallback only fires when actions stop helping.
			c.violStreak[app] = 0
		}
	}
	c.cp.sample(now)
	c.lastTick = now
}

// frozenServerSample advances srv's frozen-metrics fingerprint and
// reports whether either utilization channel has repeated bit-
// identically, while non-zero, for more than FrozenMetricsAfter
// consecutive ticks.
func (c *Controller) frozenServerSample(srv *server.Server, cpuV, diskV float64) bool {
	if c.frozenSrv == nil {
		c.frozenSrv = make(map[*server.Server]*frozenSample)
	}
	fs := c.frozenSrv[srv]
	if fs == nil {
		fs = &frozenSample{cpu: math.NaN(), disk: math.NaN()}
		c.frozenSrv[srv] = fs
	}
	if cpuV > 0 && cpuV == fs.cpu {
		fs.repeats++
	} else if diskV > 0 && diskV == fs.disk {
		fs.repeats++
	} else {
		fs.repeats = 0
	}
	fs.cpu, fs.disk = cpuV, diskV
	return fs.repeats >= c.cfg.FrozenMetricsAfter
}

// frozenEngineSnap advances eng's frozen-snapshot hash and reports
// whether a non-empty snapshot has repeated bit-identically for more
// than FrozenMetricsAfter consecutive ticks. Works on both snapshot
// flavours via the grouped vector view.
func (c *Controller) frozenEngineSnap(eng *engine.Engine, snap map[string]map[metrics.ClassID]metrics.Vector) bool {
	classes := 0
	for _, m := range snap {
		classes += len(m)
	}
	if classes == 0 {
		delete(c.frozenEng, eng)
		return false
	}
	apps := make([]string, 0, len(snap))
	for app := range snap {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var h fnv64a
	for _, app := range apps {
		h.str(app)
		ids := make([]metrics.ClassID, 0, len(snap[app]))
		for id := range snap[app] {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
		for _, id := range ids {
			h.str(id.String())
			v := snap[app][id]
			for m := 0; m < metrics.NumMetrics; m++ {
				h.u64(math.Float64bits(v[m]))
			}
		}
	}
	if c.frozenEng == nil {
		c.frozenEng = make(map[*engine.Engine]*frozenSnap)
	}
	fs := c.frozenEng[eng]
	if fs == nil {
		fs = &frozenSnap{}
		c.frozenEng[eng] = fs
	}
	if uint64(h) == fs.hash {
		fs.repeats++
	} else {
		fs.hash, fs.repeats = uint64(h), 0
	}
	return fs.repeats >= c.cfg.FrozenMetricsAfter
}

// fnv64a is an inline FNV-1a accumulator (hash/fnv allocates).
type fnv64a uint64

func (h *fnv64a) init() {
	if *h == 0 {
		*h = 14695981039346656037
	}
}

func (h *fnv64a) byte(b byte) {
	h.init()
	*h = (*h ^ fnv64a(b)) * 1099511628211
}

func (h *fnv64a) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // separator
}

func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// recordStable updates the stable-state signature of app on every server
// it runs on. The metric vectors are replaced on every stable interval;
// MRC parameters follow the paper's schedule (§3.3): a class's MRC is
// computed once, in the first stable interval in which the class has
// issued enough accesses for an estimate, and later recomputed only by
// diagnosis after an SLA violation (confirmProblems).
func (c *Controller) recordStable(now float64, sched *cluster.Scheduler,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector) {
	app := sched.App().Name
	for _, r := range sched.Replicas() {
		eng := r.Engine()
		vectors := snaps[eng][app]
		if len(vectors) == 0 {
			continue
		}
		sig := c.sigs.Get(app, r.Server().Name())
		sig.UpdateMetrics(now, vectors)
		if c.observing {
			c.observer.Event(obs.Event{
				Time: now, Kind: obs.EventSignature, App: app, Server: r.Server().Name(),
				Fields: map[string]float64{"classes": float64(len(vectors))},
			})
		}
		for id := range vectors {
			if sig.HasMRC(id) {
				continue
			}
			if _, params, ok := c.analyzer(eng).RecomputeMRC(id, eng.Pool().Capacity(), c.cfg.MRCThreshold); ok {
				sig.SetMRC(id, params)
			}
		}
	}
}

// maybeShrink releases one replica when the application is comfortably
// within its SLA and all of its servers are nearly idle — the scale-down
// half of the dynamic allocation shown in Figure 3(b).
func (c *Controller) maybeShrink(now float64, sched *cluster.Scheduler,
	avgLatency float64, cpu map[*server.Server]float64, blackout map[*server.Server]bool) {
	if c.cfg.ShrinkBelow <= 0 {
		return
	}
	reps := sched.Replicas()
	if len(reps) < 2 {
		return
	}
	// Anti-oscillation: a single quiet interval in the middle of a fault
	// episode must not release capacity that the next flap will need.
	if c.stableStreak[sched.App().Name] < c.cfg.ShrinkAfter {
		return
	}
	if avgLatency > 0.5*sched.App().SLA.MaxAvgLatency {
		return
	}
	for _, r := range reps {
		// An unknown utilization is not a low one: with any server's
		// metrics blacked out the shrink decision is deferred.
		if blackout[r.Server()] {
			return
		}
		if cpu[r.Server()] >= c.cfg.ShrinkBelow {
			return
		}
	}
	app := sched.App().Name
	victim := reps[len(reps)-1]
	if err := c.mgr.Decommission(app, victim); err != nil {
		return
	}
	c.record(Action{Time: now, Kind: ActionShrink, App: app,
		Server: victim.Server().Name(),
		Detail: fmt.Sprintf("low load, replicas now %d", len(sched.Replicas()))})
}

// maintainQuotas re-derives each enforced quota from a fresh MRC during
// a provably stable period: a quota that drifted from the class's
// current acceptable memory by more than the change factor is resized,
// and a quota whose class now needs more than it holds (the workload
// that justified containment has reverted) is dissolved — the shared
// pool reabsorbs the pages and the violation path re-diagnoses if that
// turns out wrong.
func (c *Controller) maintainQuotas(now float64, sched *cluster.Scheduler) {
	app := sched.App().Name
	for _, r := range sched.Replicas() {
		eng := r.Engine()
		srvName := r.Server().Name()
		// The whole per-replica sweep is one engine-side mutation: the
		// MRC re-derivation reads the engine's access log (the analyzer
		// is colocated with it) and the quota adjustments touch its pool,
		// so the sweep ships to the engine's server when a control plane
		// is attached. The applied adjustments come back for recording.
		apply := func() any {
			var acts []Action
			quotas := eng.Pool().Quotas()
			for _, key := range sortedClassKeys(quotas) {
				q := quotas[key]
				id, ok := parseKey(key)
				if !ok || id.App != app {
					continue
				}
				if _, registered := eng.Class(id); !registered {
					eng.Pool().RemoveQuota(key)
					acts = append(acts, Action{Kind: ActionMaintain, App: app,
						Server: srvName, Class: id.Class,
						Detail: "class no longer placed here; quota dissolved"})
					continue
				}
				_, params, okMRC := c.analyzer(eng).RecomputeMRC(id, eng.Pool().Capacity(), c.cfg.MRCThreshold)
				if !okMRC {
					continue
				}
				need := params.AcceptableMemory
				factor := c.cfg.MRCChangeFactor
				switch {
				case float64(need) > factor*float64(q):
					// The class has outgrown its cage; containment is no
					// longer the right shape for it.
					eng.Pool().RemoveQuota(key)
					acts = append(acts, Action{Kind: ActionMaintain, App: app,
						Server: srvName, Class: id.Class,
						Detail: fmt.Sprintf("needs %d pages > quota %d; quota dissolved", need, q)})
				case float64(q) > factor*float64(need):
					if err := eng.Pool().SetQuota(key, need); err == nil {
						acts = append(acts, Action{Kind: ActionMaintain, App: app,
							Server: srvName, Class: id.Class,
							Detail: fmt.Sprintf("quota %d -> %d pages", q, need)})
					}
				}
			}
			return acts
		}
		finish := func(at float64, res any) {
			acts, ok := res.([]Action)
			if !ok {
				return
			}
			for _, a := range acts {
				a.Time = at
				c.record(a)
			}
		}
		c.cp.invoke(now, srvName, app, string(ActionMaintain), apply, finish)
	}
}

// sortedClassKeys returns the keys of a map keyed by pool class name
// in ascending order. Quota changes are applied in this order: with two
// or more quotas, the order of SetQuota calls decides which shared pages
// are evicted, so it must not follow map order.
func sortedClassKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// parseKey inverts metrics.ClassID.String.
func parseKey(key string) (metrics.ClassID, bool) {
	app, class, ok := strings.Cut(key, "/")
	if !ok {
		return metrics.ClassID{}, false
	}
	return metrics.ClassID{App: app, Class: class}, true
}

// diagnose runs the incremental diagnosis for one violating application
// and reports whether a retuning action was taken.
func (c *Controller) diagnose(now float64, sched *cluster.Scheduler,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector,
	cpu, disk map[*server.Server]float64, blackout map[*server.Server]bool) bool {
	app := sched.App().Name

	// 1. CPU saturation → reactive provisioning (§5.2, fully automated).
	// Saturation shows either as high measured utilization or as a CPU
	// run-queue backlog (under closed-loop clients, a saturated server
	// throttles its own arrival rate, so backlog is the clearer signal).
	// A blacked-out server is skipped outright: its absent sample reads
	// as zero, and diagnosing "idle" from missing data would be exactly
	// the misdiagnosis graceful degradation exists to prevent.
	for _, r := range sched.Replicas() {
		srv := r.Server()
		if blackout[srv] {
			if c.observing {
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventDegradedAnalysis, App: app, Server: srv.Name(),
					Cause: "violation diagnosis skipped this server: metrics blacked out",
				})
			}
			continue
		}
		// A backlog only indicates CPU saturation when the cores are
		// actually busy; queries blocked on locks or I/O reserve future
		// CPU time without consuming the present.
		backlogged := srv.CPUQueueDelay(now) >= 0.5*sched.App().SLA.MaxAvgLatency &&
			cpu[srv] >= 0.5
		if cpu[srv] >= c.cfg.CPUSaturation || backlogged {
			if c.provisionForCPU(now, sched, srv) {
				return true
			}
			// The pool is exhausted: rebalancing cannot add capacity, so
			// brownout shedding is the remaining lever. Without an
			// admission controller this is a no-op and the exhausted
			// action recorded above stands alone, as before.
			c.brownoutShed(now, sched, snaps)
			return true
		}
	}

	// 2. Outlier detection + memory interference diagnosis per server
	// (blacked-out servers have no snapshot this tick and drop out via
	// the empty-snapshot guard).
	if !c.cfg.CoarseOnly {
		for _, r := range sched.Replicas() {
			if blackout[r.Server()] {
				continue
			}
			if c.diagnoseMemory(now, sched, r, snaps) {
				return true
			}
		}
	}

	// 3. Lock contention (the §7 future-work anomaly): when a class's
	// lock-wait intensity is an outlier and substantial, report the
	// suspected holder. Rescheduling cannot relieve a write-lock convoy
	// (read-one-write-all sends writes to every replica), so the report
	// is advisory — the application owner must fix the offending query.
	for _, r := range sched.Replicas() {
		if c.diagnoseLocks(now, sched, r, snaps) {
			return true
		}
	}

	// 4. I/O interference heuristic (opt-in automation).
	if c.cfg.AutoIOHeuristic {
		for _, r := range sched.Replicas() {
			srv := r.Server()
			if disk[srv] >= c.cfg.DiskSaturation && cpu[srv] < c.cfg.CPUSaturation {
				if c.ApplyIOHeuristic(now, srv) {
					return true
				}
			}
		}
	}

	// 5. Brownout load shedding: every fine-grained path above looked for
	// a rebalancing move and found none. With an admission controller
	// attached, shed the lowest-impact class instead of escalating — the
	// coarse fallback needs a fresh server, which a cluster this loaded
	// rarely has.
	if c.brownoutShed(now, sched, snaps) {
		return true
	}

	// 6. Coarse-grained fallback after persistent failure.
	if c.violStreak[app] >= c.cfg.FallbackAfter {
		c.coarseFallback(now, sched)
		return true
	}
	return false
}

// provisionForCPU adds a replica for a CPU-saturated application and
// reports whether one was actually provisioned (false: pool exhausted,
// recorded as ActionExhausted).
func (c *Controller) provisionForCPU(now float64, sched *cluster.Scheduler, hot *server.Server) bool {
	app := sched.App().Name
	if !c.guardAllows(now, ActionProvision, app, hot.Name(), "") {
		return false
	}
	rep, err := c.mgr.ProvisionOnFreeServer(app)
	if err != nil {
		c.record(Action{Time: now, Kind: ActionExhausted, App: app,
			Server: hot.Name(), Detail: "CPU saturated, " + err.Error()})
		return false
	}
	a := Action{Time: now, Kind: ActionProvision, App: app,
		Server: rep.Server().Name(),
		Detail: fmt.Sprintf("CPU saturation on %s, replicas now %d", hot.Name(), len(sched.Replicas()))}
	c.record(a)
	c.guardCommitted(a, func() error { return c.mgr.Decommission(app, rep) })
	return true
}

// brownoutShed is the load-shedding step of the diagnosis: when the
// cluster offers no rebalancing move, pick the application's query class
// with the LOWEST metric impact (the same current/stable × heaviness
// ranking outlier detection uses, §3.3.1, aggregated across the app's
// replicas) and put it on the admission shed list. Shedding low-impact
// classes first turns away the traffic that contributes least to the
// overload; the hysteresis in admission.Controller readmits them once
// the SLA holds again. It reports whether a class was shed (always false
// without an admission controller attached).
func (c *Controller) brownoutShed(now float64, sched *cluster.Scheduler,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector) bool {
	adm := sched.Admission()
	if adm == nil {
		return false
	}
	app := sched.App().Name
	current := make(map[metrics.ClassID]metrics.Vector)
	stable := make(map[metrics.ClassID]metrics.Vector)
	for _, r := range sched.Replicas() {
		for id, v := range snaps[r.Engine()][app] {
			cur := current[id]
			for m := 0; m < metrics.NumMetrics; m++ {
				cur[m] += v[m]
			}
			current[id] = cur
		}
		for id, v := range c.sigs.Get(app, r.Server().Name()).Metrics {
			st := stable[id]
			for m := 0; m < metrics.NumMetrics; m++ {
				st[m] += v[m]
			}
			stable[id] = st
		}
	}
	if len(current) == 0 {
		return false
	}
	reports := Detect(current, stable, c.cfg.Fences)
	ids := make([]metrics.ClassID, 0, len(reports))
	for id := range reports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	protected := adm.Config().Protected
	// Total impact across metrics. Summing lets the volume-
	// proportional heaviness weights dominate; a single metric whose
	// impact is near-uniform across classes (latency under
	// saturation: everyone queues alike) cannot scramble the order.
	cands := make([]ShedCandidate, 0, len(ids))
	for _, id := range ids {
		if protected[id] || adm.IsShed(id) {
			continue
		}
		score := 0.0
		for m := 0; m < metrics.NumMetrics; m++ {
			score += reports[id].Impact[m]
		}
		cands = append(cands, ShedCandidate{ID: id, Impact: score})
	}
	var victim metrics.ClassID
	best := math.Inf(1)
	found := false
	if c.policy != nil {
		victim, found = c.policy.ShedVictim(cands)
		for _, cd := range cands {
			if cd.ID == victim {
				best = cd.Impact
			}
		}
	} else {
		for _, cd := range cands {
			if cd.Impact < best {
				best, victim, found = cd.Impact, cd.ID, true
			}
		}
	}
	if !found {
		return false
	}
	if !c.guardAllows(now, ActionShedClass, app, "", victim.Class) {
		return false
	}
	// The shed mutates the admission gate at the app's lead replica: a
	// remote action when a control plane is attached.
	srvName := ""
	if reps := sched.Replicas(); len(reps) > 0 {
		srvName = reps[0].Server().Name()
	}
	apply := func() any {
		ord, ok := adm.ShedClass(victim)
		if !ok {
			return nil
		}
		return ord
	}
	finish := func(at float64, res any) {
		ord, ok := res.(int)
		if !ok {
			return
		}
		detail := fmt.Sprintf("no rebalancing move; lowest impact %.3g, shed #%d", best, ord)
		if c.policy != nil {
			detail = fmt.Sprintf("policy %s chose impact %.3g, shed #%d", c.policy.Name(), best, ord)
		}
		a := Action{Time: at, Kind: ActionShedClass, App: app, Class: victim.Class, Detail: detail}
		c.record(a)
		c.guardCommitted(a, func() error {
			if !adm.Readmit(victim) {
				return fmt.Errorf("readmit of %v refused: not on shed list", victim)
			}
			return nil
		})
	}
	res, outcome := c.cp.invoke(now, srvName, app, string(ActionShedClass), apply, finish)
	switch outcome {
	case invokeInline:
		return res != nil
	case invokeInFlight:
		// The request is traveling; count it as this tick's one action.
		return true
	default:
		return false
	}
}

// problem is one diagnosed problem query class.
type problem struct {
	id     metrics.ClassID
	params mrc.Params
}

// quotaApplied is the engine-side result of applying a quota plan: what
// was set, and the prior quota set for the watchdog's rollback.
type quotaApplied struct {
	applied []string
	prior   map[string]int
}

// diagnoseMemory performs outlier context detection and MRC-based memory
// diagnosis for app on replica r, taking at most one action. It reports
// whether an action was taken.
func (c *Controller) diagnoseMemory(now float64, sched *cluster.Scheduler, r *cluster.Replica,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector) bool {
	app := sched.App().Name
	eng := r.Engine()
	srv := r.Server()
	current := snaps[eng][app]
	if len(current) == 0 {
		return false
	}
	sig := c.sigs.Get(app, srv.Name())
	// A signature that has not been refreshed within SignatureMaxAge —
	// e.g. because a metric blackout or a long violation streak starved
	// recordStable — no longer describes the stable state. Comparing
	// against it would flag every drifted class as an outlier, so skip
	// outlier detection entirely and fall through to the top-k heuristic
	// (§3.3.2), which needs only the current snapshot.
	sigStale := c.cfg.SignatureMaxAge > 0 && len(sig.Metrics) > 0 &&
		now-sig.RecordedAt > c.cfg.SignatureMaxAge
	var reports map[metrics.ClassID]*Report
	if sigStale {
		if c.observing {
			c.observer.Event(obs.Event{
				Time: now, Kind: obs.EventDegradedAnalysis, App: app, Server: srv.Name(),
				Cause: fmt.Sprintf("signature %.0fs old exceeds max age %.0fs; outlier detection skipped, using top-k heavyweights",
					now-sig.RecordedAt, c.cfg.SignatureMaxAge),
				Fields: map[string]float64{"signature_age": now - sig.RecordedAt},
			})
		}
	} else {
		reports = Detect(current, sig.Metrics, c.cfg.Fences)
	}
	if c.observing {
		for _, rep := range Outliers(reports) {
			fields := make(map[string]float64)
			for m := 0; m < metrics.NumMetrics; m++ {
				if rep.ByMetric[m] != NotOutlier {
					fields["impact_"+metrics.Metric(m).String()] = rep.Impact.Get(metrics.Metric(m))
				}
			}
			c.observer.Event(obs.Event{
				Time: now, Kind: obs.EventOutlier,
				App: rep.ID.App, Server: srv.Name(), Class: rep.ID.Class,
				Level: rep.Max().String(), Fields: fields,
				Cause: "metric impact outside IQR fences vs stable state",
			})
		}
	}

	var candidates []metrics.ClassID
	for id, rep := range reports {
		if rep.MemoryOutlier() {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		// §3.3.2: "If no outlier query contexts can be determined, we use
		// similar algorithms on the top-k heavyweight queries."
		candidates = TopKByMemory(current, c.cfg.TopK)
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].String() < candidates[j].String()
	})

	capacity := eng.Pool().Capacity()
	problems := c.confirmProblems(now, candidates, srv, eng, capacity)
	if len(problems) == 0 {
		// §5.4: the victim's own classes show no MRC change — consider
		// the other applications' classes on the same engine (newly
		// scheduled or changed) as potential problem classes.
		var foreign []metrics.ClassID
		for _, id := range eng.Classes() {
			if id.App != app {
				foreign = append(foreign, id)
			}
		}
		problems = c.confirmProblems(now, foreign, srv, eng, capacity)
	}
	if len(problems) == 0 {
		return false
	}

	exclude := make(map[metrics.ClassID]bool, len(problems))
	need := make(map[metrics.ClassID]mrc.Params, len(problems))
	for _, p := range problems {
		exclude[p.id] = true
		need[p.id] = p.params
	}
	restAcc := c.analyzer(eng).RestAcceptable(exclude, capacity, c.cfg.MRCThreshold)
	if restAcc > capacity {
		// Even with every problem class gone the remaining classes do
		// not fit, so no quota plan can succeed. Rescheduling the
		// heaviest problem class still strictly reduces the pressure —
		// but only a substantial class is worth the move; a sliver-sized
		// problem cannot be what broke the SLA.
		top := problems[0]
		for _, p := range problems[1:] {
			if p.params.AcceptableMemory > top.params.AcceptableMemory {
				top = p
			}
		}
		if top.params.AcceptableMemory < capacity/8 {
			return false
		}
		return c.rescheduleClass(now, top.id, srv, ActionReschedule,
			fmt.Sprintf("needs %d pages while the rest alone needs %d of %d",
				top.params.AcceptableMemory, restAcc, capacity))
	}
	plan := SolveQuotas(capacity, need, restAcc)
	if c.cfg.PreferMigration {
		plan.Feasible = false
	}
	if plan.Feasible {
		if !c.guardAllows(now, ActionQuota, app, srv.Name(), "") {
			// Same as the reschedule veto: the problems were consumed
			// into the signature but nothing was repaired.
			for _, p := range problems {
				c.markReconfirm(p.id, srv.Name())
			}
			return false
		}
		// The plan's application is one engine-side mutation; the prior
		// quota set rides back in the result so the watchdog's rollback
		// can restore the pool exactly as it stood.
		apply := func() any {
			priorQuotas := make(map[string]int)
			for key, q := range eng.Pool().Quotas() {
				priorQuotas[key] = q
			}
			// Dissolve quotas from earlier plans that the new plan does not
			// include, so the pool reflects exactly the current diagnosis.
			planned := make(map[string]metrics.ClassID, len(plan.Quotas))
			for id := range plan.Quotas {
				planned[id.String()] = id
			}
			for key := range eng.Pool().Quotas() {
				if _, ok := planned[key]; !ok {
					eng.Pool().RemoveQuota(key)
				}
			}
			applied := make([]string, 0, len(plan.Quotas))
			for _, key := range sortedClassKeys(planned) {
				id := planned[key]
				q := plan.Quotas[id]
				if err := eng.Pool().SetQuota(key, q); err != nil {
					continue
				}
				applied = append(applied, fmt.Sprintf("%s=%d", id.Class, q))
			}
			sort.Strings(applied)
			return quotaApplied{applied: applied, prior: priorQuotas}
		}
		finish := func(at float64, res any) {
			qa, ok := res.(quotaApplied)
			if !ok {
				return
			}
			a := Action{Time: at, Kind: ActionQuota, App: app, Server: srv.Name(),
				Detail: fmt.Sprintf("quotas %s, rest %d pages", strings.Join(qa.applied, " "), plan.RestPages)}
			c.record(a)
			priorQuotas := qa.prior
			c.guardCommitted(a, func() error {
				pool := eng.Pool()
				for key := range pool.Quotas() {
					if _, had := priorQuotas[key]; !had {
						pool.RemoveQuota(key)
					}
				}
				for _, key := range sortedClassKeys(priorQuotas) {
					if err := pool.SetQuota(key, priorQuotas[key]); err != nil {
						return err
					}
				}
				return nil
			})
			c.cooldownServer(srv.Name())
		}
		if _, outcome := c.cp.invoke(now, srv.Name(), app, string(ActionQuota), apply, finish); outcome == invokeRefused {
			// Nothing was sent: the diagnosis was consumed into the
			// signature but nothing was repaired — same as a guard veto.
			for _, p := range problems {
				c.markReconfirm(p.id, srv.Name())
			}
			return false
		}
		return true
	}

	// Infeasible: reschedule the top-ranking problem class (largest
	// acceptable memory) onto a different replica of its own application.
	top := problems[0]
	for _, p := range problems[1:] {
		if p.params.AcceptableMemory > top.params.AcceptableMemory {
			top = p
		}
	}
	return c.rescheduleClass(now, top.id, srv, ActionReschedule,
		fmt.Sprintf("needs %d pages, infeasible in %d-page pool (rest %d)",
			top.params.AcceptableMemory, eng.Pool().Capacity(), restAcc))
}

// diagnoseLocks checks whether lock waits explain the violation on
// replica r and, if so, records an advisory report naming the class that
// holds the most lock time. It reports whether a report was issued.
func (c *Controller) diagnoseLocks(now float64, sched *cluster.Scheduler, r *cluster.Replica,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector) bool {
	app := sched.App().Name
	eng := r.Engine()
	current := snaps[eng][app]
	if len(current) == 0 {
		return false
	}
	// The worst lock-wait intensity must be substantial relative to the
	// SLA (waits accumulating faster than a tenth of the latency bound
	// per second of wall time).
	var worst metrics.ClassID
	worstWait := 0.0
	for id, v := range current {
		if w := v.Get(metrics.LockWait); w > worstWait {
			worstWait = w
			worst = id
		}
	}
	if worstWait < 0.1*sched.App().SLA.MaxAvgLatency {
		return false
	}
	// And it must either be an outlier against the stable state (so
	// steady lock traffic does not trigger reports) or so large in
	// absolute terms that the classification is moot — when half the
	// classes queue on one lock, their waits stop being statistically
	// remarkable relative to each other.
	overwhelming := worstWait >= 0.5*sched.App().SLA.MaxAvgLatency
	if !overwhelming {
		sig := c.sigs.Get(app, r.Server().Name())
		reports := Detect(current, sig.Metrics, c.cfg.Fences)
		if rep := reports[worst]; rep == nil || rep.ByMetric[metrics.LockWait] == NotOutlier {
			return false
		}
	}
	holders := eng.Locks().TopHolders()
	holder := "unknown"
	if len(holders) > 0 {
		holder = holders[0]
	}
	c.record(Action{Time: now, Kind: ActionLockReport, App: app,
		Server: r.Server().Name(), Class: worst.Class,
		Detail: fmt.Sprintf("lock waits %.2fs/s; top lock holder %s", worstWait, holder)})
	return true
}

// confirmProblems recomputes MRCs for candidate classes and keeps those
// that are new or significantly changed, recording the fresh parameters
// in the owning application's signature. Cache-insensitive classes —
// whose miss ratio stays near 1 no matter how much memory they get — are
// not memory problems (no quota or placement can help them), and neither
// are classes whose memory need is a sliver of the pool.
// markReconfirm flags id@server so the next confirmProblems treats its
// recorded MRC as absent. Called only from guard veto and rollback
// paths.
func (c *Controller) markReconfirm(id metrics.ClassID, server string) {
	c.reconfirm[id.String()+"@"+server] = true
}

func (c *Controller) confirmProblems(now float64, candidates []metrics.ClassID, srv *server.Server, eng *engine.Engine, capacity int) []problem {
	const uncacheableMR = 0.9
	var out []problem
	for _, id := range candidates {
		if _, registered := eng.Class(id); !registered {
			continue
		}
		_, params, ok := c.analyzer(eng).RecomputeMRC(id, capacity, c.cfg.MRCThreshold)
		if !ok {
			continue
		}
		if params.IdealMissRatio >= uncacheableMR || params.AcceptableMemory < capacity/64 {
			continue
		}
		ownSig := c.sigs.Get(id.App, srv.Name())
		old, had := ownSig.MRC[id]
		if c.reconfirm[id.String()+"@"+srv.Name()] {
			had = false
		}
		if !had || mrc.SignificantChange(old, params, c.cfg.MRCChangeFactor) {
			if c.observing {
				fields := map[string]float64{
					"acceptable_memory": float64(params.AcceptableMemory),
					"ideal_miss_ratio":  params.IdealMissRatio,
					"capacity":          float64(capacity),
				}
				cause := "first MRC estimate for this class here"
				if had {
					fields["prev_acceptable_memory"] = float64(old.AcceptableMemory)
					cause = "acceptable memory changed significantly"
				}
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventMRCDiagnosis,
					App: id.App, Server: srv.Name(), Class: id.Class,
					Cause: cause, Fields: fields,
				})
			}
			out = append(out, problem{id: id, params: params})
			ownSig.SetMRC(id, params)
			delete(c.reconfirm, id.String()+"@"+srv.Name())
		}
	}
	return out
}

// rescheduleClass moves a query class to a replica of its application on
// a different server, provisioning one if needed. It reports whether the
// move happened.
func (c *Controller) rescheduleClass(now float64, id metrics.ClassID, from *server.Server,
	kind ActionKind, detail string) bool {
	owner, ok := c.mgr.Scheduler(id.App)
	if !ok {
		return false
	}
	if !c.guardAllows(now, kind, id.App, from.Name(), id.Class) {
		// confirmProblems consumed this diagnosis when it recorded the
		// fresh MRC; with the move vetoed nothing was repaired, so put
		// the diagnosis back on the table for the next tick.
		c.markReconfirm(id, from.Name())
		return false
	}
	var target *cluster.Replica
	if c.policy != nil {
		target = c.policy.RescheduleTarget(now, from, owner.Replicas())
	} else {
		for _, r := range owner.Replicas() {
			if r.Server() != from {
				target = r
				break
			}
		}
	}
	// The watchdog's rollback restores the class's placement as it was
	// before the move.
	prior := append([]*cluster.Replica(nil), owner.Placement(id)...)
	if target == nil {
		// Provisioning attaches a full replica, which by default joins
		// every class's placement; rescheduling moves ONLY the problem
		// class, so the other classes' placements are restored.
		before := make(map[metrics.ClassID][]*cluster.Replica)
		for _, spec := range owner.App().Classes {
			if spec.ID != id {
				before[spec.ID] = append([]*cluster.Replica(nil), owner.Placement(spec.ID)...)
			}
		}
		rep, err := c.mgr.ProvisionOnFreeServer(id.App)
		if err != nil {
			c.record(Action{Time: now, Kind: ActionExhausted, App: id.App,
				Server: from.Name(), Class: id.Class, Detail: detail + "; " + err.Error()})
			return false
		}
		for other, reps := range before {
			if len(reps) > 0 {
				if err := owner.PlaceClass(other, reps...); err != nil {
					return false
				}
			}
		}
		target = rep
	}
	// The placement change itself ships to the from-server's engine
	// when a control plane is attached (target selection and any
	// provisioning above stay controller-side — the pool is the
	// controller's own resource).
	moveTarget := target
	apply := func() any {
		if err := owner.PlaceClass(id, moveTarget); err != nil {
			return nil
		}
		return true
	}
	finish := func(at float64, res any) {
		if moved, ok := res.(bool); !ok || !moved {
			return
		}
		a := Action{Time: at, Kind: kind, App: id.App, Server: moveTarget.Server().Name(),
			Class: id.Class, Detail: detail + fmt.Sprintf("; moved off %s", from.Name())}
		c.record(a)
		c.guardCommitted(a, func() error {
			if len(prior) == 0 {
				return fmt.Errorf("no prior placement for %v recorded", id)
			}
			if err := owner.PlaceClass(id, prior...); err != nil {
				return err
			}
			// The move is undone, so the diagnosis it answered is unanswered
			// again: let the controller re-confirm the problem (and, with a
			// sane policy, pick a better target).
			c.markReconfirm(id, from.Name())
			return nil
		})
		c.cooldownServer(from.Name())
	}
	res, outcome := c.cp.invoke(now, from.Name(), id.App, string(kind), apply, finish)
	switch outcome {
	case invokeInline:
		moved, ok := res.(bool)
		return ok && moved
	case invokeInFlight:
		return true
	default:
		// Target unreachable: the move never left the controller, so the
		// diagnosis goes back on the table.
		c.markReconfirm(id, from.Name())
		return false
	}
}

// ApplyIOHeuristic applies the §3.3.3 I/O interference remedy on srv:
// remove query contexts from the server in decreasing order of their I/O
// rate (one per call — incremental). It reports whether a class moved.
func (c *Controller) ApplyIOHeuristic(now float64, srv *server.Server) bool {
	by := srv.Disk().PagesByClass()
	type rated struct {
		id    metrics.ClassID
		pages int64
	}
	var ranked []rated
	for key, pages := range by {
		id, ok := parseKey(key)
		if !ok {
			continue
		}
		ranked = append(ranked, rated{id, pages})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].pages != ranked[j].pages {
			return ranked[i].pages > ranked[j].pages
		}
		return ranked[i].id.String() < ranked[j].id.String()
	})
	for _, cand := range ranked {
		if c.rescheduleClass(now, cand.id, srv, ActionIOMove,
			fmt.Sprintf("top I/O class on %s (%d pages)", srv.Name(), cand.pages)) {
			return true
		}
	}
	return false
}

// coarseFallback isolates the persistently violating application on
// fresh servers: it provisions a dedicated replica and concentrates every
// query class of the application there, away from shared machines.
func (c *Controller) coarseFallback(now float64, sched *cluster.Scheduler) {
	app := sched.App().Name
	rep, err := c.mgr.ProvisionOnFreeServer(app)
	if err != nil {
		c.record(Action{Time: now, Kind: ActionExhausted, App: app,
			Detail: "coarse fallback wanted a server: " + err.Error()})
		return
	}
	for _, spec := range sched.App().Classes {
		if err := sched.PlaceClass(spec.ID, rep); err != nil {
			c.record(Action{Time: now, Kind: ActionExhausted, App: app,
				Class: spec.ID.Class, Detail: "isolation failed: " + err.Error()})
			return
		}
	}
	c.violStreak[app] = 0
	c.record(Action{Time: now, Kind: ActionFallback, App: app,
		Server: rep.Server().Name(), Detail: "application isolated on fresh server"})
}
