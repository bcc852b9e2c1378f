// Package experiments reproduces every table and figure of the paper's
// evaluation (§5), and the operator scenarios built on the same testbed,
// as deterministic, seedable runs. Scenarios is the one registry of them
// by name. The command-line tools, the benchmark harness (bench_test.go)
// and the example programs all call into this package, so the numbers
// they report come from one implementation of each scenario.
//
// Concurrency: every scenario is a method on Options and builds its own
// testbeds from that value, so runs share no state and may execute
// concurrently. The one package-level variable is the default Options
// behind the perfbench shim (shim.go), which only perfbench writes.
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
// server pool, and a controller that reaches the engines over a seeded
// control channel.
type testbed struct {
	// opts is the run's configuration; emulate reads its load hooks.
	opts Options
	sim  *sim.Engine
	mgr  *cluster.Manager
	ctl  *core.Controller
	// net is the control channel and cp the controller's protocol
	// endpoint on it, which replaces the perfect-channel plane
	// NewController attached.
	net *ctrlnet.Network
	cp  *core.ControlPlane
}

// Options configures one scenario run. Every scenario is a method on
// Options, and the testbeds a run builds read only their own Options, so
// runs with different configurations can execute concurrently. The zero
// value runs the scenario bare: no observer, no tracer, a perfect
// control channel and live load generators.
type Options struct {
	// Observer is attached to every testbed the run builds: the
	// controller, the manager and, where a scenario wires them, the
	// schedulers, fault injectors and watchdogs report to it.
	Observer obs.Observer
	// OnTestbed, when set, receives each testbed's controller, manager
	// and simulation as the testbed is built (the tools point live
	// diagnosis and signature persistence at the most recent run).
	OnTestbed func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine)
	// Tracer, when set, samples queries into span trees: schedulers start
	// root spans through it and engines attach exec/cpu/disk children.
	// Sampling draws on the tracer's own seeded hash, not the simulation
	// RNG, so outputs are unaffected.
	Tracer *obs.Tracer
	// CtrlLink is the default link configuration (latency, jitter, drop,
	// duplication) of every control channel the run builds. The zero
	// Config is the perfect channel.
	CtrlLink ctrlnet.Config
	// OnArrival, when set, receives every client submission — cohort
	// (application) name, exact virtual time, query class — before the
	// scheduler sees it. The tools point a wltemporal.Recorder here
	// (-wl.record) to capture a run as a workload-trace-v2 file.
	OnArrival func(cohort string, t float64, class metrics.ClassID)
	// Replay, when set, swaps every load generator for a
	// wltemporal.Replayer feeding the trace's recorded arrivals. Replay
	// preserves RNG fork parity for single-application scenarios (one
	// emulate call, one trace cohort); see WORKLOADS.md for the contract.
	Replay *wltemporal.Trace
}

// ctrlNetSeed decorrelates the control network's private RNG stream
// from the simulation's workload stream.
const ctrlNetSeed = 0x6374726c

func (o Options) newTestbed(seed uint64, servers, poolPages int, cfg core.Config) *testbed {
	s := sim.NewEngine(seed)
	mgr := cluster.NewManager()
	mgr.PoolConfig = poolConfig(poolPages)
	mgr.Tracer = o.Tracer
	for i := 0; i < servers; i++ {
		mgr.AddServer(newServer(fmt.Sprintf("db%d", i+1), poolPages*2))
	}
	ctl, err := core.NewController(s, mgr, cfg)
	if err != nil {
		panic(err) // static wiring cannot fail
	}
	if o.Observer != nil {
		ctl.SetObserver(o.Observer)
		mgr.Observer = o.Observer
		mgr.Clock = func() float64 { return s.Now().Seconds() }
	}
	if o.OnTestbed != nil {
		o.OnTestbed(ctl, mgr, s)
	}
	tb := &testbed{opts: o, sim: s, mgr: mgr, ctl: ctl, net: ctrlnet.New(s, seed^ctrlNetSeed)}
	tb.net.SetDefaults(o.CtrlLink)
	tb.cp = ctl.AttachControlPlane(tb.net)
	tb.cp.SetTracer(o.Tracer)
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
// emulator normally, or a trace replayer when Options.Replay is set.
// Either way Options.OnArrival sees every submission under the
// application's name as its cohort.
func (tb *testbed) emulate(sched *cluster.Scheduler, mix []workload.MixEntry,
	think float64, load workload.LoadFunction) loadgen {
	name := sched.App().Name
	onArrival := tb.opts.OnArrival
	if tb.opts.Replay != nil {
		rep, err := wltemporal.NewReplayer(tb.sim, tb.opts.Replay,
			func(cohort string, now float64, class metrics.ClassID) error {
				if cohort != name {
					// A multi-application trace: this replayer only feeds
					// its own application's cohort.
					return nil
				}
				if onArrival != nil {
					onArrival(cohort, now, class)
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
	if onArrival != nil {
		cfg.OnArrival = func(t float64, class metrics.ClassID) { onArrival(name, t, class) }
	}
	em, err := workload.NewEmulator(tb.sim, sched, cfg)
	if err != nil {
		panic(err)
	}
	return em
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
