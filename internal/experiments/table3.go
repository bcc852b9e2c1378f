package experiments

import (
	"strings"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/sim"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/rubis"
)

// Table3Row is one configuration of the §5.5 VM study, reporting the
// domain-1 RUBiS instance's performance.
type Table3Row struct {
	Domain1, Domain2 string
	Latency          float64
	WIPS             float64
}

// Table3Result also carries the I/O diagnosis the administrator (or the
// I/O heuristic) derives from the dom-0 statistics.
type Table3Result struct {
	Rows []Table3Row
	// TopIOClass is the query class with the highest I/O rate on the
	// contended server (the paper: SearchItemsByRegion).
	TopIOClass string
	// TopIOShare is its fraction of all dom-0 page I/O during contention
	// (the paper reports 87%).
	TopIOShare float64
	// CPUUtilization during contention: low, ruling out CPU saturation.
	CPUUtilization float64
}

// Table3 reproduces §5.5: two RUBiS instances run in two Xen domains on
// one physical server. Each domain has its own buffer pool and its own
// data, but all I/O funnels through dom-0, so the I/O-intensive instances
// destroy each other's performance even though CPU is idle and neither
// suffers memory interference. Removing the top-I/O query class
// (SearchItemsByRegion) from domain-2 — rescheduling it onto a different
// physical machine — restores domain-1 to near its baseline.
func (Options) Table3(seed uint64) *Table3Result {
	const (
		phase       = 400.0
		clients     = 200
		think       = 7.0
		vmPoolPages = PoolPages
	)
	s := sim.NewEngine(seed)

	// One physical box with two Xen domains, plus a spare machine for
	// the rescheduled class.
	box := newServer("xen1", 4*vmPoolPages)
	spare := newServer("db2", 4*vmPoolPages)
	vm1, err := box.AddVM("domain-1", vmPoolPages)
	if err != nil {
		panic(err)
	}
	vm2, err := box.AddVM("domain-2", vmPoolPages)
	if err != nil {
		panic(err)
	}
	newEngine := func(name string, host engine.Host) *engine.Engine {
		return engine.MustNew(engine.Config{
			Name: name,
			Pool: bufferpool.Config{Capacity: vmPoolPages, ReadAheadRun: 4, ReadAheadPages: 32},
		}, host)
	}
	e1 := newEngine("mysql-dom1", vm1)
	e2 := newEngine("mysql-dom2", vm2)
	e3 := newEngine("mysql-spare", spare)

	app1 := rubis.New(s.RNG().Fork(), "rubis-1")
	app2 := rubis.New(s.RNG().Fork(), "rubis-2")
	sched1, err := cluster.NewScheduler(app1)
	if err != nil {
		panic(err)
	}
	sched2, err := cluster.NewScheduler(app2)
	if err != nil {
		panic(err)
	}
	rep1 := cluster.NewReplica(e1, box)
	rep2 := cluster.NewReplica(e2, box)
	rep3 := cluster.NewReplica(e3, spare)
	if err := sched1.AddReplica(rep1); err != nil {
		panic(err)
	}
	if err := sched2.AddReplica(rep2); err != nil {
		panic(err)
	}

	em1, err := workload.NewEmulator(s, sched1, workload.Config{
		Mix: rubis.Mix("rubis-1"), ThinkTime: think, ThinkNoise: 0.3,
		Load: workload.Constant(clients),
	})
	if err != nil {
		panic(err)
	}
	res := &Table3Result{}

	// measureTail runs through a settle half-phase, discards it, then
	// measures the second half of the phase.
	measureTail := func(sched *cluster.Scheduler, mid, end float64) (lat, wips float64) {
		s.RunUntil(sim.Time(mid))
		sched.Tracker().CloseInterval(mid-phase/2, mid) // settle, discarded
		s.RunUntil(sim.Time(end))
		iv := sched.Tracker().CloseInterval(mid, end)
		return iv.AvgLatency, iv.Throughput
	}

	// Phase 1: domain-1 alone (domain-2 idle).
	em1.Start()
	lat, wips := measureTail(sched1, phase/2, phase)
	res.Rows = append(res.Rows, Table3Row{Domain1: "RUBiS", Domain2: "IDLE", Latency: lat, WIPS: wips})

	// Phase 2: domain-2 starts its own RUBiS instance; dom-0 contends.
	em2, err := workload.NewEmulator(s, sched2, workload.Config{
		Mix: rubis.Mix("rubis-2"), ThinkTime: think, ThinkNoise: 0.3,
		Load: workload.Constant(clients),
	})
	if err != nil {
		panic(err)
	}
	box.Disk().ResetStats()
	box.CPUUtilization(s.Now().Seconds()) // reset the CPU window
	em2.Start()
	lat, wips = measureTail(sched1, phase+phase/2, 2*phase)
	res.Rows = append(res.Rows, Table3Row{Domain1: "RUBiS", Domain2: "RUBiS", Latency: lat, WIPS: wips})

	// Diagnosis from the dom-0 logs: CPU is low, I/O dominated by one
	// class.
	res.CPUUtilization = box.CPUUtilization(s.Now().Seconds())
	byClass := box.Disk().PagesByClass()
	var top int64
	for key, pages := range byClass {
		if pages > top {
			top = pages
			res.TopIOClass = key
		}
	}
	// The paper reports SIBR's share of its own application's I/O (87%):
	// compute the top class's share within its application.
	if i := strings.IndexByte(res.TopIOClass, '/'); i > 0 {
		app := res.TopIOClass[:i+1]
		var appTotal int64
		for key, pages := range byClass {
			if strings.HasPrefix(key, app) {
				appTotal += pages
			}
		}
		if appTotal > 0 {
			res.TopIOShare = float64(top) / float64(appTotal)
		}
	}

	// Phase 3: reschedule domain-2's SearchItemsByRegion onto the spare
	// physical machine (the paper's "RUBiS1" configuration).
	if err := sched2.AddReplica(rep3); err != nil {
		panic(err)
	}
	sibr := rubis.ClassID(rubis.SearchItemsByRegionClass)
	sibr.App = "rubis-2"
	for _, spec := range app2.Classes {
		target := rep2
		if spec.ID == sibr {
			target = rep3
		}
		if err := sched2.PlaceClass(spec.ID, target); err != nil {
			panic(err)
		}
	}
	lat, wips = measureTail(sched1, 2*phase+phase/2, 3*phase)
	em1.Stop()
	em2.Stop()
	res.Rows = append(res.Rows, Table3Row{Domain1: "RUBiS", Domain2: "RUBiS1 (SIBR moved)", Latency: lat, WIPS: wips})
	return res
}
