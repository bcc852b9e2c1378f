// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) as deterministic, seedable scenario functions. The
// benchmark harness (bench_test.go), the benchrunner tool and the example
// programs all call into this package, so the numbers they report come
// from one implementation of each scenario.
//
// Concurrency: scenario functions are sequential and must not run
// concurrently with each other — the Set* hooks (SetObsHooks,
// SetTracer, ...) are process-global precisely because scenarios take
// only a seed.
package experiments

import (
	"fmt"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/storage"
	"outlierlb/internal/wltemporal"
	"outlierlb/internal/workload"
)

// PoolPages is the paper's buffer pool: 128 MB = 8192 16-KiB pages
// ("the database instance is given 128MB buffer pool space, which
// corresponds to 8192 memory pages").
const PoolPages = 8192

// diskParams models the testbed disks; sequential transfer is much
// cheaper than positioning, which is what makes read-ahead worthwhile.
func diskParams() storage.Params {
	return storage.Params{Seek: 0.004, PerPage: 0.0001}
}

// newServer builds one Dell-PowerEdge-like box: 4 cores and enough RAM
// for the given pool.
func newServer(name string, memoryPages int) *server.Server {
	return server.MustNew(server.Config{
		Name: name, Cores: 4, MemoryPages: memoryPages, Disk: diskParams(),
	})
}

// poolConfig is the engine buffer-pool configuration used across the
// experiments: InnoDB-style linear read-ahead.
func poolConfig(pages int) bufferpool.Config {
	return bufferpool.Config{Capacity: pages, ReadAheadRun: 4, ReadAheadPages: 32}
}

// testbed is the shared scaffolding: a simulation, a manager with a
// server pool, and a controller.
type testbed struct {
	sim *sim.Engine
	mgr *cluster.Manager
	ctl *core.Controller
	// net and cp are non-nil when the message-passing control plane is
	// on (the default): the control channel and its protocol endpoint.
	net *ctrlnet.Network
	cp  *core.ControlPlane
}

// obsHooks lets callers (the command-line tools) attach observability to
// the testbeds the scenario functions build internally. The scenario
// functions take only a seed, so this is deliberately process-global.
var obsHooks struct {
	observer  obs.Observer
	onTestbed func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine)
}

// SetObsHooks installs an observer attached to every testbed built after
// the call, plus an optional callback receiving each testbed's
// controller, manager and simulation (the tools use it to point live
// diagnosis at the most recent run). Pass nil, nil to clear.
func SetObsHooks(o obs.Observer, onTestbed func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine)) {
	obsHooks.observer = o
	obsHooks.onTestbed = onTestbed
}

// tracer is the query tracer handed to every testbed built after
// SetTracer. Process-global for the same reason as the observability
// hooks: scenario functions take only a seed.
var tracer *obs.Tracer

// SetTracer installs a span tracer on every subsequently built testbed:
// schedulers start query root spans through it and engines attach
// exec/cpu/disk child spans. Sampling draws on the tracer's own seeded
// hash, not the simulation RNG, so goldens are unaffected. Pass nil to
// clear.
func SetTracer(t *obs.Tracer) { tracer = t }

// eventCore selects the engines' service-phase completion path for
// subsequently built testbeds: true (default, the -sim.eventcore
// toggle) commits CPU/disk/lock-wait completions through each engine's
// simcore event queue; false restores the pre-event-core inline
// accounting. Both paths are bit-identical (eventcore_test.go asserts
// it), so this is a transition escape hatch, not a behavior switch.
var eventCore = true

// SetEventCore makes every subsequently built testbed provision its
// engines with the discrete-event service-phase path on (the default)
// or off (engine.Config.InlinePhases). Process-global for the same
// reason as the other hooks: scenario functions take only a seed.
func SetEventCore(on bool) { eventCore = on }

// ctrlHook configures the message-passing control plane for
// subsequently built testbeds. On by default with a perfect channel —
// bit-identical to the direct-call path (ctrlnet_test.go asserts it),
// the same transition-flag discipline as -sim.eventcore. The link
// config lets tools and chaos scenarios degrade every link.
var ctrlHook = struct {
	on   bool
	link ctrlnet.Config
}{on: true} // the zero Config is the perfect channel

// SetCtrlNet selects the controller↔engine interaction path for
// subsequently built testbeds: true (default, the -ctrl.net toggle)
// routes snapshot collection, heartbeats and retuning actions over a
// simulated message channel; false restores the direct-call path.
func SetCtrlNet(on bool) { ctrlHook.on = on }

// SetCtrlLink sets the default link characteristics (latency, jitter,
// drop, duplication, reordering) of every control channel built after
// the call. Ignored when SetCtrlNet(false) is in effect.
func SetCtrlLink(link ctrlnet.Config) { ctrlHook.link = link }

// arrivalHook, when set, receives every client submission any
// subsequently run scenario makes — cohort (application) name, exact
// virtual time, query class — before the scheduler sees it. The tools
// point a wltemporal.Recorder here (-wl.record) to capture any live run
// as a workload-trace-v2 file. Process-global for the same reason as
// the other hooks: scenario functions take only a seed.
var arrivalHook func(cohort string, t float64, class metrics.ClassID)

// SetArrivalHook installs (or, with nil, clears) the submission hook.
func SetArrivalHook(fn func(cohort string, t float64, class metrics.ClassID)) {
	arrivalHook = fn
}

// replayTrace, when set, swaps every subsequently built emulator for a
// wltemporal.Replayer feeding the trace's recorded arrivals instead of
// generating load. Replay preserves RNG fork parity for single-
// application scenarios (one emulate call, one trace cohort); see
// WORKLOADS.md for the contract.
var replayTrace *wltemporal.Trace

// SetReplay installs (or, with nil, clears) a recorded trace to feed in
// place of generated client load.
func SetReplay(tr *wltemporal.Trace) { replayTrace = tr }

// ctrlNetSeed decorrelates the control network's private RNG stream
// from the simulation's workload stream.
const ctrlNetSeed = 0x6374726c

func newTestbed(seed uint64, servers, poolPages int, cfg core.Config) *testbed {
	s := sim.NewEngine(seed)
	mgr := cluster.NewManager()
	mgr.PoolConfig = poolConfig(poolPages)
	mgr.Tracer = tracer
	mgr.InlinePhases = !eventCore
	for i := 0; i < servers; i++ {
		mgr.AddServer(newServer(fmt.Sprintf("db%d", i+1), poolPages*2))
	}
	ctl, err := core.NewController(s, mgr, cfg)
	if err != nil {
		panic(err) // static wiring cannot fail
	}
	if obsHooks.observer != nil {
		ctl.SetObserver(obsHooks.observer)
		mgr.Observer = obsHooks.observer
		mgr.Clock = func() float64 { return s.Now().Seconds() }
	}
	if obsHooks.onTestbed != nil {
		obsHooks.onTestbed(ctl, mgr, s)
	}
	tb := &testbed{sim: s, mgr: mgr, ctl: ctl}
	if ctrlHook.on {
		tb.net = ctrlnet.New(s, seed^ctrlNetSeed)
		tb.net.SetDefaults(ctrlHook.link)
		tb.cp = ctl.AttachControlPlane(tb.net, core.CtrlConfig{})
		tb.cp.SetTracer(tracer)
	}
	return tb
}

// startApp registers app with the manager and provisions its first
// replica on a free server, returning the scheduler.
func (tb *testbed) startApp(app *cluster.Application) *cluster.Scheduler {
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		panic(err)
	}
	if err := tb.mgr.Register(sched); err != nil {
		panic(err)
	}
	if _, err := tb.mgr.ProvisionOnFreeServer(app.Name); err != nil {
		panic(err)
	}
	return sched
}

// registerApp creates and registers a scheduler without provisioning a
// replica — for applications that share an existing engine via Attach.
func (tb *testbed) registerApp(app *cluster.Application) *cluster.Scheduler {
	sched, err := cluster.NewScheduler(app)
	if err != nil {
		panic(err)
	}
	if err := tb.mgr.Register(sched); err != nil {
		panic(err)
	}
	return sched
}

// loadgen is what a scenario needs from its load source: the closed-
// loop workload.Emulator, the open-loop wltemporal.Driver and the
// wltemporal.Replayer all satisfy it, so scenarios run unchanged
// whether their load is generated live or replayed from a trace.
type loadgen interface {
	Start()
	Stop()
	Interactions() int64
	Shed() int64
	Errors() []error
}

// emulate attaches a client load source to sched: a closed-loop
// emulator normally, or a trace replayer when SetReplay is in effect.
// Either way the arrival hook (SetArrivalHook) sees every submission
// under the application's name as its cohort.
func (tb *testbed) emulate(sched *cluster.Scheduler, mix []workload.MixEntry,
	think float64, load workload.LoadFunction) loadgen {
	name := sched.App().Name
	if replayTrace != nil {
		rep, err := wltemporal.NewReplayer(tb.sim, replayTrace,
			func(cohort string, now float64, class metrics.ClassID) error {
				if cohort != name {
					// A multi-application trace: this replayer only feeds
					// its own application's cohort.
					return nil
				}
				if arrivalHook != nil {
					arrivalHook(cohort, now, class)
				}
				_, err := sched.Submit(now, class)
				return err
			})
		if err != nil {
			panic(err)
		}
		return rep
	}
	cfg := workload.Config{
		Mix: mix, ThinkTime: think, ThinkNoise: 0.3, Load: load,
	}
	if arrivalHook != nil {
		cfg.OnArrival = func(t float64, class metrics.ClassID) { arrivalHook(name, t, class) }
	}
	em, err := workload.NewEmulator(tb.sim, sched, cfg)
	if err != nil {
		panic(err)
	}
	return em
}

// measure runs the simulation for dur seconds and returns the average
// latency and throughput over that span. It closes intervals directly on
// the tracker, so it is only for runs where no controller is ticking.
func (tb *testbed) measure(sched *cluster.Scheduler, dur float64) (latency, wips float64) {
	start := tb.sim.Now().Seconds()
	// Close out whatever partial interval is pending so the measurement
	// window is clean.
	sched.Tracker().CloseInterval(start, start)
	tb.sim.RunUntil(sim.Time(start + dur))
	iv := sched.Tracker().CloseInterval(start, start+dur)
	return iv.AvgLatency, iv.Throughput
}

// windowStats aggregates the controller-closed intervals of sched that
// fall inside [from, to]: a query-weighted average latency and the mean
// throughput. Used when a controller owns interval closing.
func windowStats(sched *cluster.Scheduler, from, to float64) (latency, wips float64) {
	var latSum float64
	var queries int64
	var tputSum float64
	n := 0
	for _, iv := range sched.Tracker().History() {
		if iv.Start < from-1e-9 || iv.End > to+1e-9 {
			continue
		}
		latSum += iv.AvgLatency * float64(iv.Queries)
		queries += iv.Queries
		tputSum += iv.Throughput
		n++
	}
	if queries > 0 {
		latency = latSum / float64(queries)
	}
	if n > 0 {
		wips = tputSum / float64(n)
	}
	return latency, wips
}
