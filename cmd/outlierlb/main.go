// Outlierlb runs any scenario of the experiments registry end-to-end
// and narrates the controller's diagnosis and retuning actions:
//
//	outlierlb                          # list every scenario with its aliases
//	outlierlb -scenario fig3           # §5.2 sinusoid load, reactive provisioning (alias cpu)
//	outlierlb -scenario table2         # §5.4 two apps in one DBMS, class reschedule (consolidation)
//	outlierlb -scenario gray-failure   # chaos: one replica's disk degrades 8x (grayfailure)
//	outlierlb -scenario flash-crowd    # temporal: referral surge over an OLTP baseline
//	outlierlb -scenario guard-...      # pathological policy under the action watchdog
//	outlierlb -record tpcw.trace       # dump a TPC-W page-access trace for mrctool
//
// With -wl.record FILE any scenario's offered load is captured as a
// workload-trace-v2; -wl.replay FILE feeds a recorded trace back in
// place of the live load generators (see WORKLOADS.md).
//
// With -sig.store FILE the controller warm-starts from signatures saved
// by a previous run and saves its own back on completion.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"outlierlb/internal/experiments"
	"outlierlb/internal/obscli"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload/rubis"
	"outlierlb/internal/workload/tpcw"
)

// scenarioNames lists the canonical names for the -scenario usage.
func scenarioNames() string {
	var names []string
	for _, sc := range experiments.Scenarios() {
		names = append(names, sc.Name)
	}
	return strings.Join(names, "|")
}

func main() {
	scenario := flag.String("scenario", "", scenarioNames())
	seed := flag.Uint64("seed", 1, "simulation seed")
	record := flag.String("record", "", "write a synthetic TPC-W page-access trace to FILE and exit")
	recordApp := flag.String("record-app", "tpcw", "application to record: tpcw|tpcw-noindex|rubis")
	recordN := flag.Int("record-n", 500000, "accesses to record (≥ 0)")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug endpoints on this address (e.g. :9090)")
	verbose := flag.Bool("v", false, "print each controller decision to stderr as it happens")
	sigStore := flag.String("sig.store", "",
		"persist stable-state signatures to FILE: warm-start on launch, save on completion")
	traceSample := flag.Float64("trace.sample", 0,
		"head-sample this fraction of queries into span traces, in [0, 1] (0 disables, 1.0 traces everything)")
	traceRing := flag.Int("trace.ring", 0,
		"finished traces retained for /debug/trace, ≥ 0 (0 = default 512)")
	runOut := flag.String("run.out", "",
		"flush a RUN_*.json flight recording (metric time series + sampled traces) to FILE on completion")
	pprof := flag.Bool("obs.pprof", false, "mount net/http/pprof under /debug/pprof/ on -obs.addr")
	ctrlFlags := obscli.RegisterCtrlFlags()
	wlFlags := obscli.RegisterWlFlags()
	flag.Parse()

	var opts experiments.Options
	ctrlFlags.Apply(&opts)
	if err := obscli.CheckFlags(opts.CtrlLink, *traceSample, *traceRing); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(2)
	}

	if *record != "" {
		// -record dumps a page-access trace and exits without running a
		// scenario, so a -wl.* flag would be silently ignored.
		if name, set := wlFlags.AnySet(); set {
			fmt.Fprintf(os.Stderr, "outlierlb: %s applies only to scenario runs, not -record\n", name)
			os.Exit(2)
		}
		if err := checkRecordFlags(*recordN); err != nil {
			fmt.Fprintln(os.Stderr, "outlierlb:", err)
			os.Exit(2)
		}
		if err := recordTrace(*record, *recordApp, *recordN, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "outlierlb:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d accesses to %s\n", *recordN, *record)
		return
	}

	// Validate -scenario before any session or simulation state exists:
	// a typo must fail fast with the valid names, not start an obs
	// server and then die.
	sc, ok := experiments.Lookup(*scenario)
	if !ok {
		if *scenario == "" {
			fmt.Fprintln(os.Stderr, "outlierlb: need -scenario NAME or -record FILE; scenarios (aliases in parentheses):")
		} else {
			fmt.Fprintf(os.Stderr, "outlierlb: unknown scenario %q; valid scenarios (aliases in parentheses):\n", *scenario)
		}
		for _, d := range experiments.Scenarios() {
			name := d.Name
			if len(d.Aliases) > 0 {
				name += " (" + strings.Join(d.Aliases, ", ") + ")"
			}
			fmt.Fprintf(os.Stderr, "  %-38s %s\n", name, d.Doc)
		}
		os.Exit(2)
	}

	session, err := obscli.Start(obscli.Options{
		Addr:        *obsAddr,
		Verbose:     *verbose,
		SigPath:     *sigStore,
		TraceSample: *traceSample,
		TraceRing:   *traceRing,
		RunOut:      *runOut,
		PProf:       *pprof,
		Tool:        "outlierlb",
		Scenario:    *scenario,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	session.Apply(&opts)
	if err := wlFlags.Apply(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(2)
	}

	fmt.Println("scenario:", sc.About)
	fmt.Println()
	res, err := sc.Run(opts, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	report(opts, *seed, res)

	if err := wlFlags.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	if err := session.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	session.WaitForInterrupt()
}

// report prints a run's result; the result's type picks the layout.
// The §5.3 index-drop report also compares the two remedies, as the
// paper does.
func report(o experiments.Options, seed uint64, res any) {
	switch r := res.(type) {
	case *experiments.Figure3Result:
		printCPU(r)
	case *experiments.Figure4Result:
		printIndexDrop(r)
		quota, migrate := o.AblationQuotaVsMigrate(seed)
		fmt.Printf("\nremedies: quota keeps 1 machine at %.3fs avg; migration spends %d machines for %.3fs\n",
			quota.FinalLatency, migrate.ServersUsed, migrate.FinalLatency)
	case *experiments.MRCResult:
		fmt.Printf("%s: total memory %d pages (ideal miss ratio %.3f), acceptable memory %d pages (miss ratio %.3f)\n",
			r.Class, r.Params.TotalMemory, r.Params.IdealMissRatio, r.Params.AcceptableMemory, r.Params.AcceptableMissRatio)
	case *experiments.Table1Result:
		fmt.Printf("hit ratio, shared / partitioned / exclusive: BestSeller %.1f%% / %.1f%% / %.1f%%, rest %.1f%% / %.1f%% / %.1f%%\n",
			r.SharedBest, r.PartitionedBest, r.ExclusiveBest, r.SharedRest, r.PartitionedRest, r.ExclusiveRest)
		fmt.Printf("BestSeller quota: %d of %d pages\n", r.BestQuota, experiments.PoolPages)
	case *experiments.Table2Result:
		printConsolidation(r)
	case *experiments.Table3Result:
		printIOContention(r)
	case *experiments.LockResult:
		printLockContention(r)
	case *experiments.FailureResult:
		printFailure(r)
	case *experiments.OverloadResult:
		printOverload(r)
	case *experiments.ChaosResult:
		printChaos(r)
	case *experiments.TemporalResult:
		printTemporal(r)
	case *experiments.GuardResult:
		printGuard(r)
	default:
		panic(fmt.Sprintf("outlierlb: no report for %T", res))
	}
}

func printTemporal(r *experiments.TemporalResult) {
	fmt.Printf("baseline latency:   %.3fs\n", r.BaselineLatency)
	fmt.Printf("surge latency:      %.3fs\n", r.SurgeLatency)
	fmt.Printf("final latency:      %.3fs\n", r.FinalLatency)
	fmt.Printf("client errors:      %d\n", r.ClientErrors)
	fmt.Printf("offered load:       %d interactions (%d shed by admission)\n", r.Offered, r.Shed)
	fmt.Printf("capacity actions:   %d provision(s), %d shrink(s)\n", r.Provisions, r.Shrinks)
	fmt.Printf("final met streak:   %d interval(s)\n", r.FinalMetStreak)
	sc := r.Scorecard
	fmt.Printf("scorecard:          detected=%v (%s, +%.0fs) mitigated=%v (%s, +%.0fs)\n",
		sc.Detected, sc.DetectKind, sc.TimeToDetect, sc.Mitigated, sc.MitigateKind, sc.TimeToMitigate)
	fmt.Printf("recovery:           recovered=%v time-to-recover=%.0fs steady-state deviation %+.1f%%\n",
		sc.Recovered, sc.TimeToRecover, 100*sc.SteadyStateDeviation)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printGuard(r *experiments.GuardResult) {
	fmt.Printf("policy window:      [%.0fs, %.0fs]\n", r.EnableAt, r.DisableAt)
	fmt.Printf("protected latency:  %.3fs (inside the policy window)\n", r.ProtectedLatency)
	fmt.Printf("final latency:      %.3fs (after the policy was pulled)\n", r.FinalLatency)
	fmt.Printf("client errors:      %d\n", r.ClientErrors)
	fmt.Printf("watchdog:           %d actions, %d vetoes, %d suspects, %d reverts, %d storm trips\n",
		r.Watchdog.Actions, r.Watchdog.Vetoes, r.Watchdog.Suspects, r.Watchdog.Reverts, r.Watchdog.Trips)
	sc := r.Scorecard
	fmt.Printf("scorecard:          detected=%v (%s, +%.0fs) mitigated=%v (%s, +%.0fs) reverted=%v\n",
		sc.Detected, sc.DetectKind, sc.TimeToDetect, sc.Mitigated, sc.MitigateKind, sc.TimeToMitigate, sc.Reverted)
	fmt.Printf("recovery:           recovered=%v time-to-recover=%.0fs steady-state deviation %+.1f%%\n",
		sc.Recovered, sc.TimeToRecover, 100*sc.SteadyStateDeviation)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printFailure(r *experiments.FailureResult) {
	fmt.Printf("healthy latency:   %.3fs (two replicas)\n", r.BeforeLatency)
	fmt.Printf("failover latency:  %.3fs (survivor saturated)\n", r.DuringLatency)
	fmt.Printf("recovered latency: %.3fs (replacement provisioned: %v)\n", r.AfterLatency, r.Provisioned)
	fmt.Printf("client errors:     %d\n", r.ClientErrors)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printChaos(r *experiments.ChaosResult) {
	fmt.Printf("target replica:     %s\n", r.Target)
	fmt.Printf("healthy latency:    %.3fs\n", r.HealthyLatency)
	fmt.Printf("fault latency:      %.3fs\n", r.FaultLatency)
	fmt.Printf("recovered latency:  %.3fs\n", r.FinalLatency)
	fmt.Printf("client errors:      %d\n", r.ClientErrors)
	fmt.Printf("breaker trips:      %d (probes %d, recoveries %d)\n", r.BreakerTrips, r.Probes, r.Recoveries)
	fmt.Printf("read retries:       %d\n", r.Retries)
	fmt.Printf("degraded analyses:  %d\n", r.DegradedEvents)
	fmt.Printf("capacity actions:   %d provision(s), %d shrink(s)\n", r.Provisions, r.Shrinks)
	fmt.Printf("target ended run:   healthy=%v\n", r.TargetHealthy)
	if r.CtrlSent > 0 {
		fmt.Printf("control channel:    %d sent, %d dropped, %d duplicated\n",
			r.CtrlSent, r.CtrlDropped, r.CtrlDuplicated)
		fmt.Printf("control protocol:   epoch %d, %d retries, %d dup-suppressed, %d stale-epoch rejections, %d abandoned\n",
			r.Ctrl.Epoch, r.Ctrl.Retries, r.Ctrl.DupSuppressed, r.Ctrl.EpochRejections, r.Ctrl.Abandoned)
		fmt.Printf("failure detector:   %d unreachable declaration(s), %d autonomy episode(s), max applications per action %d\n",
			r.CtrlUnreachableEvents, r.Ctrl.AutonomyEpisodes, r.Ctrl.MaxApplications)
	}
	sc := r.Scorecard
	fmt.Printf("scorecard:          detected=%v (%s, +%.0fs) mitigated=%v (%s, +%.0fs) reverted=%v\n",
		sc.Detected, sc.DetectKind, sc.TimeToDetect, sc.Mitigated, sc.MitigateKind, sc.TimeToMitigate, sc.Reverted)
	fmt.Printf("recovery:           recovered=%v time-to-recover=%.0fs steady-state deviation %+.1f%%\n",
		sc.Recovered, sc.TimeToRecover, 100*sc.SteadyStateDeviation)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printOverload(r *experiments.OverloadResult) {
	fmt.Printf("nominal latency:    %.3fs\n", r.NominalLatency)
	fmt.Printf("peak latency:       %.3fs (before shedding bites)\n", r.PeakLatency)
	fmt.Printf("protected latency:  %.3fs (Checkout, during overload)\n", r.ProtectedLatency)
	fmt.Printf("final latency:      %.3fs\n", r.FinalLatency)
	fmt.Printf("client errors:      %d\n", r.ClientErrors)
	fmt.Printf("shed interactions:  %d\n", r.ShedInteractions)
	fmt.Printf("shed order:         %v (resheds %d, readmits %d)\n", r.ShedOrder, r.Resheds, r.Readmits)
	fmt.Printf("still shed at end:  %v\n", r.FinalShedClasses)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printLockContention(r *experiments.LockResult) {
	fmt.Printf("stable latency:    %.3fs\n", r.StableLatency)
	fmt.Printf("contended latency: %.3fs (%.0fx)\n", r.ContendedLatency, r.ContendedLatency/r.StableLatency)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
	if r.ReportedVictim != "" {
		fmt.Printf("\nthe detector flagged %q as the most affected context and named the holder in the report.\n", r.ReportedVictim)
	}
}

func printCPU(r *experiments.Figure3Result) {
	for i := range r.Times {
		if i%6 != 0 && r.Latency[i] <= r.SLA {
			continue
		}
		status := "ok"
		if r.Latency[i] > r.SLA {
			status = "SLA VIOLATION"
		}
		fmt.Printf("t=%5.0fs clients=%4d machines=%d latency=%6.3fs %s\n",
			r.Times[i], r.Clients[i], r.Machines[i], r.Latency[i], status)
	}
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func printIndexDrop(r *experiments.Figure4Result) {
	fmt.Println("per-class ratios vs stable state (latency / throughput / misses / read-ahead):")
	for i, c := range r.Classes {
		fmt.Printf("  %2d %-22s %7.2f %7.2f %7.2f %10.2f\n", i+1, c,
			r.LatencyRatio[i], r.ThroughputRatio[i], r.MissesRatio[i], r.ReadAheadRatio[i])
	}
	fmt.Printf("\noutlier contexts on memory counters: %v\n", r.MemoryOutliers)
	fmt.Printf("MRC recomputation confirms: %v\n", r.Confirmed)
}

func printConsolidation(r *experiments.Table2Result) {
	for _, row := range r.Rows {
		fmt.Printf("%-38s latency=%6.3fs WIPS=%6.2f\n", row.Placement, row.Latency, row.WIPS)
	}
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
	fmt.Printf("\nthe diagnosis rescheduled %q onto a different replica\n", r.MovedClass)
}

func printIOContention(r *experiments.Table3Result) {
	for _, row := range r.Rows {
		fmt.Printf("domain-1=%-8s domain-2=%-22s latency=%6.3fs WIPS=%6.2f\n",
			row.Domain1, row.Domain2, row.Latency, row.WIPS)
	}
	fmt.Printf("\ndiagnosis from dom-0 statistics: CPU %.0f%% (not saturated); %s contributes %.0f%% of its application's I/O\n",
		100*r.CPUUtilization, r.TopIOClass, 100*r.TopIOShare)
	fmt.Println("remedy: reschedule that class onto a different physical machine")
}

// checkRecordFlags rejects a -record-n no trace can have: a negative
// access count.
func checkRecordFlags(n int) error {
	if n < 0 {
		return fmt.Errorf("-record-n must be ≥ 0, got %d", n)
	}
	return nil
}

func recordTrace(path, app string, n int, seed uint64) error {
	rng := sim.NewRNG(seed)
	var classes []string
	var gens []trace.Generator
	var weights []float64
	switch app {
	case "tpcw", "tpcw-noindex":
		a := tpcw.New(rng, tpcw.Options{DropODateIndex: app == "tpcw-noindex"})
		mix := tpcw.Mix()
		for i, spec := range a.Classes {
			classes = append(classes, spec.ID.Class)
			gens = append(gens, spec.Pattern)
			weights = append(weights, mix[i].Weight*float64(spec.PagesPerQuery))
		}
	case "rubis":
		a := rubis.New(rng, "")
		mix := rubis.Mix("")
		for i, spec := range a.Classes {
			classes = append(classes, spec.ID.Class)
			gens = append(gens, spec.Pattern)
			weights = append(weights, mix[i].Weight*float64(spec.PagesPerQuery))
		}
	default:
		return fmt.Errorf("unknown application %q", app)
	}
	tr := trace.Interleave(rng.Fork(), n, classes, gens, weights)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.Write(f)
}
