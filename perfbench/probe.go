package main

import (
	"errors"
	"runtime/metrics"
	"slices"
	"strings"

	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/experiments"
	lbmetrics "outlierlb/internal/metrics"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// probe watches one scenario call from outside, through the experiments
// package's public seams: the testbed callback hands over the controller,
// manager and simulation, and the arrival hook sees every submission. No
// observer is installed, so being watched costs the scenario one function
// call per arrival plus an engine scan and heap sample every scanEvery
// arrivals.
type probe struct {
	stopAtFirst bool // abort the call at its first arrival
	arrivals    int64
	peakHeap    uint64
	heapSample  []metrics.Sample
	ctl         *core.Controller
	mgr         *cluster.Manager
	sim         *sim.Engine
	engines     []*engine.Engine // every engine seen, first-seen order
	seenEngine  map[*engine.Engine]bool
}

// errSetupDone unwinds a set-up-only call out of the simulation loop.
var errSetupDone = errors.New("perfbench: first arrival reached")

// scanEvery is the arrival cadence of engine discovery and heap
// sampling. An engine lives at least one 10 s controller interval, which
// spans far more arrivals than this in every workload.
const scanEvery = 256

func newProbe() *probe {
	p := &probe{heapSample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	experiments.SetObsHooks(nil, p.onTestbed)
	experiments.SetArrivalHook(p.onArrival)
	return p
}

func (p *probe) close() {
	experiments.SetObsHooks(nil, nil)
	experiments.SetArrivalHook(nil)
}

// reset prepares the probe for the next scenario call.
func (p *probe) reset(stopAtFirst bool) {
	*p = probe{heapSample: p.heapSample, stopAtFirst: stopAtFirst,
		seenEngine: map[*engine.Engine]bool{}}
}

func (p *probe) onTestbed(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine) {
	p.ctl, p.mgr, p.sim = ctl, mgr, s
}

func (p *probe) onArrival(string, float64, lbmetrics.ClassID) {
	if p.arrivals == 0 && p.stopAtFirst {
		panic(errSetupDone)
	}
	p.arrivals++
	if p.arrivals%scanEvery == 0 {
		p.scan()
	}
}

// scan records newly provisioned engines (a decommissioned engine leaves
// the manager, but its counters still belong to the run) and samples
// the heap.
func (p *probe) scan() {
	for _, srv := range p.mgr.Servers() {
		for _, e := range p.mgr.EnginesOn(srv) {
			if !p.seenEngine[e] {
				p.seenEngine[e] = true
				p.engines = append(p.engines, e)
			}
		}
	}
	metrics.Read(p.heapSample)
	if v := p.heapSample[0].Value.Uint64(); v > p.peakHeap {
		p.peakHeap = v
	}
}

// setupOnly runs a scenario call up to its first arrival and abandons
// the rest of it.
func (p *probe) setupOnly(run func()) {
	p.reset(true)
	func() {
		defer func() {
			if r := recover(); r != errSetupDone {
				panic(r)
			}
		}()
		run()
	}()
}

// counters are exact per-layer work counts of a run. They depend only on
// the scenario seeds, so every repetition must reproduce them.
type counters struct {
	Arrivals      int64
	Completed     int64 // queries in every scheduler's closed intervals
	Shed          int64
	Pushes        [simcore.NumKinds]uint64
	MaxQueueDepth int
	PhaseEvents   uint64
	PoolAccesses  int64
	PoolHits      int64
	Prefetches    int64
	Evictions     int64
	Actions       int
}

// collect reads the counters after a scenario call returned.
func (p *probe) collect(shed int64) counters {
	p.scan()
	c := counters{Arrivals: p.arrivals, Shed: shed, Actions: len(p.ctl.Actions())}
	for _, s := range p.mgr.Schedulers() {
		for _, iv := range s.Tracker().History() {
			c.Completed += iv.Queries
		}
	}
	q := p.sim.QueueStats()
	c.Pushes = q.PerKind
	c.MaxQueueDepth = q.MaxDepth
	for _, e := range p.engines {
		c.PhaseEvents += e.PhaseEventStats().Pushes
		st := e.Pool().TotalStats()
		c.PoolAccesses += st.Accesses
		c.PoolHits += st.Hits
		c.Prefetches += st.Prefetches
		c.Evictions += st.Evictions
	}
	return c
}

// add folds another call's counters into c (a repetition may span
// several scenario calls).
func (c *counters) add(o counters) {
	c.Arrivals += o.Arrivals
	c.Completed += o.Completed
	c.Shed += o.Shed
	for k := range c.Pushes {
		c.Pushes[k] += o.Pushes[k]
	}
	c.MaxQueueDepth = max(c.MaxQueueDepth, o.MaxQueueDepth)
	c.PhaseEvents += o.PhaseEvents
	c.PoolAccesses += o.PoolAccesses
	c.PoolHits += o.PoolHits
	c.Prefetches += o.Prefetches
	c.Evictions += o.Evictions
	c.Actions += o.Actions
}

// windows returns every class access window still held by the engines
// of the last call, in a deterministic order.
func (p *probe) windows() [][]uint64 {
	var out [][]uint64
	for _, e := range p.engines {
		ids := e.Classes()
		slices.SortFunc(ids, func(a, b lbmetrics.ClassID) int { return strings.Compare(a.String(), b.String()) })
		for _, id := range ids {
			if w := e.Window(id); len(w) > 0 {
				out = append(out, w)
			}
		}
	}
	return out
}
