// Quickstart walks the library's layers on a toy cluster: build a
// server, run a database engine on it, drive two query classes, collect
// per-class statistics, compute a miss-ratio curve, detect an outlier
// context, and apply a buffer-pool quota.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/core"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
)

func main() {
	// A 4-core server with a disk, hosting one database engine with a
	// 2000-page buffer pool and InnoDB-style read-ahead.
	srv := server.MustNew(server.Config{
		Name: "db1", Cores: 4, MemoryPages: 4000,
		Disk: storage.Params{Seek: 0.004, PerPage: 0.0001},
	})
	eng := engine.MustNew(engine.Config{
		Name: "mysql-1",
		Pool: bufferpool.Config{Capacity: 2000, ReadAheadRun: 4, ReadAheadPages: 32},
	}, srv)

	// Two query classes: a cached point lookup and a scan whose working
	// set overflows the pool.
	rng := sim.NewRNG(42)
	lookup := metrics.ClassID{App: "shop", Class: "Lookup"}
	scan := metrics.ClassID{App: "shop", Class: "Report"}
	must(eng.Register(engine.ClassSpec{
		ID: lookup, CPUPerQuery: 0.002, PagesPerQuery: 4,
		Pattern: trace.NewZipfSet(rng.Fork(), 0, 600, 1.4),
	}))
	must(eng.Register(engine.ClassSpec{
		ID: scan, CPUPerQuery: 0.010, PagesPerQuery: 200,
		Pattern: &trace.SequentialScan{Base: 100000, Span: 800},
	}))

	// Interleave executions in virtual time and snapshot per-class
	// metrics for a measurement interval.
	now := 0.0
	for i := 0; i < 400; i++ {
		done, err := eng.Execute(now, lookup)
		must(err)
		if i%10 == 0 {
			if _, err := eng.Execute(now, scan); err != nil {
				must(err)
			}
		}
		now = done + 0.05
	}
	interval := now
	snap := make(map[metrics.ClassID]metrics.Vector)
	for id, s := range eng.Snapshot(interval, false) {
		snap[id] = s.Vector
	}
	fmt.Println("per-class metrics over one measurement interval:")
	for _, id := range eng.Classes() {
		v := snap[id]
		fmt.Printf("  %-12s latency=%.3fs throughput=%.1f/s accesses=%.0f/s misses=%.0f/s read-ahead=%.0f/s\n",
			id.Class, v.Get(metrics.Latency), v.Get(metrics.Throughput),
			v.Get(metrics.PageAccesses), v.Get(metrics.BufferMisses), v.Get(metrics.ReadAhead))
	}

	// Miss-ratio curve of the scan class from its recent page accesses,
	// capped at the pool the class actually lives in.
	curve := mrc.Compute(eng.Window(scan))
	params := curve.ParamsFor(eng.Pool().Capacity(), mrc.DefaultThreshold)
	fmt.Printf("\nReport MRC: total memory %d pages, acceptable %d pages (miss ratio %.3f)\n",
		params.TotalMemory, params.AcceptableMemory, params.AcceptableMissRatio)

	// Outlier detection: compare the interval against a synthetic stable
	// state in which the scan was lighter.
	stable := map[metrics.ClassID]metrics.Vector{}
	for id, v := range snap {
		s := v
		if id == scan {
			s.Set(metrics.BufferMisses, v.Get(metrics.BufferMisses)/20)
			s.Set(metrics.PageAccesses, v.Get(metrics.PageAccesses)/10)
		}
		stable[id] = s
	}
	// IQR detection needs a population; pad with quiet classes.
	for i := 0; i < 4; i++ {
		id := metrics.ClassID{App: "shop", Class: fmt.Sprintf("quiet%d", i)}
		var v metrics.Vector
		v.Set(metrics.PageAccesses, 10)
		v.Set(metrics.Throughput, 5)
		stable[id] = v
		snap[id] = v
	}
	reports := core.Detect(snap, stable, core.DefaultFences())
	for _, r := range core.Outliers(reports) {
		fmt.Printf("outlier context: %s (%s), memory counters affected: %v\n",
			r.ID.Class, r.Max(), r.MemoryOutlier())
	}

	// The selective-retuning action: contain the scan with the smallest
	// quota that still meets its acceptable miss ratio.
	quota := params.AcceptableMemory
	must(eng.Pool().SetQuota(scan.String(), quota))
	fmt.Printf("\nenforced quota: %s limited to %d pages, shared pool keeps %d\n",
		scan.Class, quota, eng.Pool().SharedCapacity())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
