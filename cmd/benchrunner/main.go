// Benchrunner regenerates every table and figure of the paper's
// evaluation section and prints them in the same shape the paper reports:
//
//	benchrunner -exp all          # everything (several seconds)
//	benchrunner -exp table2       # one experiment
//	benchrunner -exp fig5 -csv    # machine-readable series
//
// Experiments: fig3, fig4, fig5, fig6, table1, table2, table3, ablations,
// chaos, overload, flash-crowd, diurnal-shift, olap-antagonist,
// trace-replay.
//
// Experiment runs also accept -wl.record FILE / -wl.replay FILE to
// capture the offered load as a workload-trace-v2 or feed a recorded
// trace back in (see WORKLOADS.md).
//
// It also hosts the performance suite (see internal/benchsuite and
// PERFORMANCE.md):
//
//	benchrunner -suite -out BENCH_0.json          # full run, write baseline
//	benchrunner -suite.short -baseline BENCH_0.json  # CI regression gate
//
// And the resilience scorecard suite (see internal/resil):
//
//	benchrunner -resil -out RESIL_0.json             # chaos+adversarial+guard sweep
//	benchrunner -resil -resil.scenarios clock-skew -assert  # CI resilience gate
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"outlierlb/internal/experiments"
	"outlierlb/internal/obscli"
	"outlierlb/internal/plot"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment to run: fig3|fig4|fig5|fig6|table1|table2|table3|ablations|chaos|overload|"+
			"flash-crowd|diurnal-shift|olap-antagonist|trace-replay|all")
	seed := flag.Uint64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit figures as CSV series instead of aligned text")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug endpoints on this address (e.g. :9090)")
	verbose := flag.Bool("v", false, "print each controller decision to stderr as it happens")
	suite := flag.Bool("suite", false, "run the performance suite (full settings) instead of an experiment")
	suiteShort := flag.Bool("suite.short", false, "run the performance suite with reduced CI settings")
	resilMode := flag.Bool("resil", false,
		"run the resilience scorecard suite (chaos + adversarial + guard scenarios) instead of an experiment")
	resilScen := flag.String("resil.scenarios", "all",
		"resil mode: comma-separated scenario names to run (all = every scenario)")
	resilSeeds := flag.String("resil.seeds", "1,2,3", "resil mode: comma-separated seeds")
	resilAssert := flag.Bool("assert", false,
		"resil mode: fail unless every scorecard is detected, mitigated and recovered within -assert.budget")
	resilBudget := flag.Float64("assert.budget", 300,
		"resil mode: maximum acceptable time-to-recover in virtual seconds for -assert")
	out := flag.String("out", "", "suite mode: write results to this BENCH_*.json path")
	force := flag.Bool("force", false, "suite mode: allow -out to overwrite an existing file")
	baseline := flag.String("baseline", "", "suite mode: compare against this BENCH_*.json and fail on regressions")
	tol := flag.Float64("tol", 0.30, "suite mode: fractional regression tolerance for -baseline")
	traceSample := flag.Float64("trace.sample", 0,
		"head-sample this fraction of queries into span traces (0 disables, 1.0 traces everything)")
	runOut := flag.String("run.out", "",
		"flush a RUN_*.json flight recording (metric time series + sampled traces) to FILE on completion")
	pprof := flag.Bool("obs.pprof", false, "mount net/http/pprof under /debug/pprof/ on -obs.addr")
	ctrlFlags := obscli.RegisterCtrlFlags()
	wlFlags := obscli.RegisterWlFlags()
	flag.Parse()

	if *suite || *suiteShort || *resilMode {
		// These modes never start an obs session, so those flags would be
		// silently ignored; refuse them instead of surprising the user.
		if *traceSample != 0 || *runOut != "" || *pprof || *obsAddr != "" {
			fmt.Fprintln(os.Stderr,
				"benchrunner: -trace.sample, -run.out, -obs.pprof and -obs.addr apply only to experiment runs, not -suite/-suite.short/-resil")
			os.Exit(2)
		}
		// The performance baselines and the resilience scorecards both
		// pin a perfect control channel (the ctrl-* scenarios inject their
		// own degradation), so a -ctrl.* flag here would be silently
		// ignored; refuse it even at its default value.
		if name, set := ctrlFlags.AnySet(); set {
			fmt.Fprintf(os.Stderr,
				"benchrunner: %s applies only to experiment runs, not -suite/-suite.short/-resil\n", name)
			os.Exit(2)
		}
		// The suites pin their own offered load; a trace flag here would
		// either be silently ignored or quietly reshape every baseline.
		if name, set := wlFlags.AnySet(); set {
			fmt.Fprintf(os.Stderr,
				"benchrunner: %s applies only to experiment runs, not -suite/-suite.short/-resil\n", name)
			os.Exit(2)
		}
		if *resilMode {
			if *suite || *suiteShort {
				fmt.Fprintln(os.Stderr, "benchrunner: -resil and -suite are mutually exclusive")
				os.Exit(2)
			}
			runResil(*resilScen, *resilSeeds, *out, *force, *resilAssert, *resilBudget)
			return
		}
		runSuite(*suiteShort, *out, *baseline, *tol, *force, *seed)
		return
	}

	ctrlFlags.Apply()
	if err := wlFlags.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	session, err := obscli.Start(obscli.Options{
		Addr:        *obsAddr,
		Verbose:     *verbose,
		TraceSample: *traceSample,
		RunOut:      *runOut,
		PProf:       *pprof,
		Tool:        "benchrunner",
		Scenario:    *exp,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
	defer func() {
		if err := wlFlags.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		session.Finish()
		session.WaitForInterrupt()
	}()

	runners := map[string]func(uint64, bool){
		"fig3":            runFig3,
		"fig4":            runFig4,
		"fig5":            runFig5,
		"fig6":            runFig6,
		"table1":          runTable1,
		"table2":          runTable2,
		"table3":          runTable3,
		"ablations":       runAblations,
		"chaos":           runChaosSuite,
		"overload":        runOverload,
		"flash-crowd":     runTemporal("flash-crowd", experiments.FlashCrowd),
		"diurnal-shift":   runTemporal("diurnal-shift", experiments.DiurnalShift),
		"olap-antagonist": runTemporal("olap-antagonist", experiments.OLAPAntagonist),
		"trace-replay":    runTemporal("trace-replay-identity", experiments.TraceReplayIdentity),
	}
	names := []string{"fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3", "ablations", "chaos", "overload",
		"flash-crowd", "diurnal-shift", "olap-antagonist", "trace-replay"}

	want := strings.ToLower(*exp)
	if want == "all" {
		for _, n := range names {
			runners[n](*seed, *csv)
			fmt.Println()
		}
		return
	}
	run, ok := runners[want]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (want %s or all)\n",
			want, strings.Join(names, "|"))
		os.Exit(2)
	}
	run(*seed, *csv)
}

func runFig3(seed uint64, csv bool) {
	r := experiments.Figure3(seed)
	fmt.Println("=== Figure 3: alleviation of CPU contention (§5.2) ===")
	if csv {
		fmt.Println("time,clients,machines,latency")
		for i := range r.Times {
			fmt.Printf("%.0f,%d,%d,%.4f\n", r.Times[i], r.Clients[i], r.Machines[i], r.Latency[i])
		}
		return
	}
	clients := make([]float64, len(r.Times))
	machines := make([]float64, len(r.Times))
	latency := make([]float64, len(r.Times))
	for i := range r.Times {
		clients[i] = float64(r.Clients[i])
		machines[i] = float64(r.Machines[i])
		latency[i] = r.Latency[i]
	}
	fmt.Println("(a) client load:")
	fmt.Print(plot.TimeSeries(r.Times, []plot.Series{{Name: "clients", Values: clients}}, 72, 8))
	fmt.Println("(b) machine allocation:")
	fmt.Print(plot.TimeSeries(r.Times, []plot.Series{{Name: "machines", Values: machines}}, 72, 5))
	fmt.Printf("(c) average query latency (SLA %.1fs):\n", r.SLA)
	fmt.Print(plot.TimeSeries(r.Times, []plot.Series{{Name: "latency(s)", Values: latency}}, 72, 10))
	fmt.Printf("peak machines: %d, final latency: %.3fs (SLA %.1fs)\n",
		r.MaxMachines(), r.FinalLatency(), r.SLA)
	for _, a := range r.Actions {
		fmt.Println("  action:", a)
	}
}

func runFig4(seed uint64, csv bool) {
	r := experiments.Figure4(seed)
	fmt.Println("=== Figure 4: dropping the O_DATE index (§5.3) ===")
	fmt.Println("ratios of measured values to stable-state averages per query class:")
	if csv {
		fmt.Println("id,class,latency,throughput,misses,readahead")
		for i, c := range r.Classes {
			fmt.Printf("%d,%s,%.3f,%.3f,%.3f,%.3f\n", i+1, c,
				r.LatencyRatio[i], r.ThroughputRatio[i], r.MissesRatio[i], r.ReadAheadRatio[i])
		}
	} else {
		fmt.Printf("%3s %-22s %9s %9s %9s %12s\n", "id", "class", "latency", "tput", "misses", "read-ahead")
		for i, c := range r.Classes {
			fmt.Printf("%3d %-22s %9.2f %9.2f %9.2f %12.2f\n", i+1, c,
				r.LatencyRatio[i], r.ThroughputRatio[i], r.MissesRatio[i], r.ReadAheadRatio[i])
		}
	}
	fmt.Printf("memory-counter outliers: %v\n", r.MemoryOutliers)
	fmt.Printf("confirmed by MRC change: %v (paper: BestSeller)\n", r.Confirmed)
}

func printMRC(r *experiments.MRCResult, csv bool) {
	if csv {
		fmt.Println("memory_pages,miss_ratio")
		for i := range r.Memory {
			fmt.Printf("%d,%.4f\n", r.Memory[i], r.Miss[i])
		}
	} else {
		for i := range r.Memory {
			if i%4 != 0 {
				continue
			}
			bar := strings.Repeat("#", int(r.Miss[i]*50))
			fmt.Printf("%7d pages | %-50s %.3f\n", r.Memory[i], bar, r.Miss[i])
		}
	}
	fmt.Printf("total memory needed: %d pages (ideal miss ratio %.3f)\n",
		r.Params.TotalMemory, r.Params.IdealMissRatio)
	fmt.Printf("acceptable memory: %d pages (acceptable miss ratio %.3f)\n",
		r.Params.AcceptableMemory, r.Params.AcceptableMissRatio)
}

func runFig5(seed uint64, csv bool) {
	fmt.Println("=== Figure 5: MRC of BestSeller, normal configuration (§5.3) ===")
	printMRC(experiments.Figure5(seed), csv)
	fmt.Println("paper: acceptable memory 6982 pages")
}

func runFig6(seed uint64, csv bool) {
	fmt.Println("=== Figure 6: MRC of RUBiS SearchItemsByRegion (§5.4) ===")
	printMRC(experiments.Figure6(seed), csv)
	fmt.Println("paper: acceptable memory ≈7906 pages")
}

func runTable1(seed uint64, _ bool) {
	r := experiments.Table1(seed)
	fmt.Println("=== Table 1: hit ratio of buffer-pool managements (§5.3) ===")
	fmt.Printf("%-16s %14s %18s %18s\n", "", "Shared Buffer", "Partitioned Buffer", "Exclusive Buffer")
	fmt.Printf("%-16s %13.1f%% %17.1f%% %17.1f%%\n", "BestSeller", r.SharedBest, r.PartitionedBest, r.ExclusiveBest)
	fmt.Printf("%-16s %13.1f%% %17.1f%% %17.1f%%\n", "Non-BestSeller", r.SharedRest, r.PartitionedRest, r.ExclusiveRest)
	fmt.Printf("BestSeller quota: %d pages of %d (paper: 3695 of 8192)\n",
		r.BestQuota, experiments.PoolPages)
	fmt.Println("paper:            shared       partitioned       exclusive")
	fmt.Println("  BestSeller      95.5%             95.7%            96.1%")
	fmt.Println("  Non-BestSeller  96.2%             99.5%            99.9%")
}

func runTable2(seed uint64, _ bool) {
	r := experiments.Table2(seed)
	fmt.Println("=== Table 2: memory contention in a shared buffer pool (§5.4) ===")
	fmt.Printf("%-38s %10s %10s\n", "placement", "latency(s)", "WIPS")
	for _, row := range r.Rows {
		fmt.Printf("%-38s %10.3f %10.2f\n", row.Placement, row.Latency, row.WIPS)
	}
	fmt.Printf("diagnosed and rescheduled: %s (paper: SearchItemsByRegion)\n", r.MovedClass)
	for _, a := range r.Actions {
		fmt.Println("  action:", a)
	}
	fmt.Println("paper: 0.54s/6.57 → 5.42s/4.29 → 1.27s/6.44")
}

func runTable3(seed uint64, _ bool) {
	r := experiments.Table3(seed)
	fmt.Println("=== Table 3: I/O contention among VM domains (§5.5) ===")
	fmt.Printf("%-10s %-24s %10s %10s\n", "domain-1", "domain-2", "latency(s)", "WIPS")
	for _, row := range r.Rows {
		fmt.Printf("%-10s %-24s %10.3f %10.2f\n", row.Domain1, row.Domain2, row.Latency, row.WIPS)
	}
	fmt.Printf("diagnosis: CPU %.0f%%, top I/O class %s with %.0f%% of its application's I/O (paper: 87%%)\n",
		100*r.CPUUtilization, r.TopIOClass, 100*r.TopIOShare)
	fmt.Println("paper: 1.5s/97 → 4.8s/30 → 1.5s/95")
}

func runChaosSuite(seed uint64, csv bool) {
	fmt.Println("=== Chaos: replica health management under injected faults ===")
	scenarios := []struct {
		name string
		fn   func(uint64) (*experiments.ChaosResult, error)
	}{
		{"gray-failure", experiments.ChaosGrayFailure},
		{"flapping", experiments.ChaosFlapping},
		{"metric-blackout", experiments.ChaosMetricBlackout},
	}
	if csv {
		fmt.Println("scenario,healthy,fault,final,errors,trips,recoveries,retries,degraded,provisions,shrinks,target_healthy")
	} else {
		fmt.Printf("%-16s %8s %8s %8s %7s %6s %6s %8s %9s %8s %7s\n",
			"scenario", "healthy", "fault", "final", "errors", "trips", "recov", "retries", "degraded", "actions", "healthy")
	}
	for _, sc := range scenarios {
		r, err := sc.fn(seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		if csv {
			fmt.Printf("%s,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%v\n",
				sc.name, r.HealthyLatency, r.FaultLatency, r.FinalLatency, r.ClientErrors,
				r.BreakerTrips, r.Recoveries, r.Retries, r.DegradedEvents, r.Provisions, r.Shrinks, r.TargetHealthy)
		} else {
			fmt.Printf("%-16s %7.3fs %7.3fs %7.3fs %7d %6d %6d %8d %9d %3d+%-3d %7v\n",
				sc.name, r.HealthyLatency, r.FaultLatency, r.FinalLatency, r.ClientErrors,
				r.BreakerTrips, r.Recoveries, r.Retries, r.DegradedEvents, r.Provisions, r.Shrinks, r.TargetHealthy)
		}
	}
	if !csv {
		fmt.Println("invariants: zero client errors, fault-window latency under the query deadline,")
		fmt.Println("breaker trips probed back to healthy, at most one provision/shrink pair per fault")
	}
}

func runOverload(seed uint64, csv bool) {
	fmt.Println("=== Overload: admission control and impact-ranked load shedding ===")
	r, err := experiments.Overload(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: overload:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Println("nominal,peak,protected,final,errors,shed_interactions,resheds,readmits,shed_order")
		fmt.Printf("%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%s\n",
			r.NominalLatency, r.PeakLatency, r.ProtectedLatency, r.FinalLatency,
			r.ClientErrors, r.ShedInteractions, r.Resheds, r.Readmits,
			strings.Join(r.ShedOrder, "+"))
		return
	}
	fmt.Printf("latency: nominal %.3fs → peak %.3fs → protected %.3fs → final %.3fs\n",
		r.NominalLatency, r.PeakLatency, r.ProtectedLatency, r.FinalLatency)
	fmt.Printf("shed order: %v (resheds %d, readmits %d, %d interactions turned away)\n",
		r.ShedOrder, r.Resheds, r.Readmits, r.ShedInteractions)
	fmt.Printf("client errors: %d, still shed at end: %v\n", r.ClientErrors, r.FinalShedClasses)
	fmt.Println("invariants: lowest-impact classes shed first, protected class keeps its SLA,")
	fmt.Println("everything readmitted and zero rejections once load returns to nominal")
}

// runTemporal adapts one temporal-workload scenario (flash-crowd,
// diurnal-shift, olap-antagonist, trace-replay-identity) to the -exp
// runner shape. The CSV form emits one row per run for sweeps.
func runTemporal(name string, fn func(uint64) (*experiments.TemporalResult, error)) func(uint64, bool) {
	return func(seed uint64, csv bool) {
		r, err := fn(seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		sc := r.Scorecard
		if csv {
			fmt.Println("scenario,seed,baseline,surge,final,errors,offered,shed,provisions,shrinks,detected,mitigated,recovered,t_detect,t_mitigate,t_recover")
			fmt.Printf("%s,%d,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d,%v,%v,%v,%.0f,%.0f,%.0f\n",
				name, seed, r.BaselineLatency, r.SurgeLatency, r.FinalLatency, r.ClientErrors,
				r.Offered, r.Shed, r.Provisions, r.Shrinks,
				sc.Detected, sc.Mitigated, sc.Recovered,
				sc.TimeToDetect, sc.TimeToMitigate, sc.TimeToRecover)
			return
		}
		fmt.Printf("=== Temporal: %s ===\n", name)
		fmt.Printf("latency: baseline %.3fs → surge %.3fs → final %.3fs\n",
			r.BaselineLatency, r.SurgeLatency, r.FinalLatency)
		fmt.Printf("offered: %d interactions (%d shed by admission), client errors %d\n",
			r.Offered, r.Shed, r.ClientErrors)
		fmt.Printf("capacity: %d provision(s), %d shrink(s); final met streak %d interval(s)\n",
			r.Provisions, r.Shrinks, r.FinalMetStreak)
		fmt.Printf("scorecard: detected=%v (%s, +%.0fs) mitigated=%v (%s, +%.0fs) recovered=%v (+%.0fs after clear)\n",
			sc.Detected, sc.DetectKind, sc.TimeToDetect, sc.Mitigated, sc.MitigateKind, sc.TimeToMitigate,
			sc.Recovered, sc.TimeToRecover)
		for _, a := range r.Actions {
			fmt.Println("  action:", a)
		}
	}
}

func runAblations(seed uint64, _ bool) {
	fmt.Println("=== Ablations (design choices) ===")
	quota, migrate := experiments.AblationQuotaVsMigrate(seed)
	fmt.Printf("quota vs migrate (index drop): quota %d server(s) at %.3fs; migrate %d server(s) at %.3fs\n",
		quota.ServersUsed, quota.FinalLatency, migrate.ServersUsed, migrate.FinalLatency)
	fine, coarse := experiments.AblationFineVsCoarse(seed)
	fmt.Printf("fine vs coarse (consolidation): fine %d server(s), recovery %.0fs; coarse %d server(s), recovery %.0fs\n",
		fine.ServersUsed, fine.RecoverySeconds, coarse.ServersUsed, coarse.RecoverySeconds)
	otk := experiments.AblationOutlierVsTopK(seed)
	fmt.Printf("outlier vs top-k: detector examined %d classes (culprit found: %v); blanket top-%d\n",
		otk.OutlierCandidates, otk.OutlierFoundBestSeller, otk.TopKCandidates)
	fmt.Println("fence sweep (inner multiplier → flagged classes):")
	for _, pt := range experiments.AblationFences(seed) {
		fmt.Printf("  %.1f → %d (culprit flagged: %v)\n", pt.Inner, pt.Outliers, pt.HasBestSeller)
	}
}
