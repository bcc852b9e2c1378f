// Outlierlb runs the paper's dynamic-change scenarios end-to-end and
// narrates the controller's diagnosis and retuning actions.
//
//	outlierlb -scenario cpu            # §5.2 sinusoid load, reactive provisioning
//	outlierlb -scenario indexdrop      # §5.3 O_DATE index drop, quota enforcement
//	outlierlb -scenario consolidation  # §5.4 two apps in one DBMS, class reschedule
//	outlierlb -scenario iocontention   # §5.5 two VMs, dom-0 I/O interference
//	outlierlb -scenario lockcontention # §7 future work: lock-wait outliers
//	outlierlb -scenario failure        # §7 future work: replica crash + recovery
//	outlierlb -scenario grayfailure    # chaos: one replica's disk degrades 8x
//	outlierlb -scenario flapping       # chaos: one replica cycles down/up
//	outlierlb -scenario blackout       # chaos: one server's metrics go dark
//	outlierlb -scenario overload       # chaos: 2x load pulse, impact-ranked shedding
//	outlierlb -scenario byzantine      # adversarial: one replica's monitoring lies
//	outlierlb -scenario snapcorrupt    # adversarial: dropped + duplicated snapshots
//	outlierlb -scenario clockskew      # adversarial: the controller's clock jumps
//	outlierlb -scenario flash-crowd    # temporal: referral surge over an OLTP baseline
//	outlierlb -scenario diurnal-shift  # temporal: day/night cycle, provision/shrink
//	outlierlb -scenario olap-antagonist # temporal: scan-heavy OLAP beside OLTP (§5.4)
//	outlierlb -scenario trace-replay-identity # record→replay bit-identity check
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

// scenarioDef registers one runnable scenario: its flag value, the
// one-line description printed by the usage listing, and the runner.
type scenarioDef struct {
	name string
	desc string
	run  func(seed uint64)
}

// scenarios is the full registry, in listing order. -scenario values
// are validated against it up front, so a typo fails fast with the
// valid names instead of silently running nothing.
func scenarios() []scenarioDef {
	defs := []scenarioDef{
		{"cpu", "§5.2 sinusoid load, reactive provisioning", runCPU},
		{"indexdrop", "§5.3 O_DATE index drop, quota enforcement", runIndexDrop},
		{"consolidation", "§5.4 two apps in one DBMS, class reschedule", runConsolidation},
		{"iocontention", "§5.5 two VMs, dom-0 I/O interference", runIOContention},
		{"lockcontention", "§7 future work: lock-wait outliers", runLockContention},
		{"failure", "§7 future work: replica crash + recovery", runFailure},
		{"grayfailure", "chaos: one replica's disk degrades 8x for 200s", func(seed uint64) {
			runChaos(seed, "one replica's disk degrades 8x for 200s (gray failure: it answers, slowly)",
				experiments.ChaosGrayFailure)
		}},
		{"flapping", "chaos: one replica cycles down/up every ~15s", func(seed uint64) {
			runChaos(seed, "one replica cycles down/up every ~15s for 120s",
				experiments.ChaosFlapping)
		}},
		{"blackout", "chaos: one server's metrics go dark for 150s", func(seed uint64) {
			runChaos(seed, "one server's monitoring goes dark for 150s while it keeps serving",
				experiments.ChaosMetricBlackout)
		}},
		{"overload", "chaos: 2x load pulse, impact-ranked shedding", runOverload},
		{"byzantine", "adversarial: one replica's monitoring lies (scaled CPU, inflated latency)", func(seed uint64) {
			runChaos(seed, "one healthy replica's monitoring lies for 200s (scaled CPU, 8x latency snapshots)",
				experiments.ChaosByzantineMetrics)
		}},
		{"snapcorrupt", "adversarial: one engine's snapshots dropped, then duplicated", func(seed uint64) {
			runChaos(seed, "one engine's snapshots are dropped for 95s, then a stale snapshot is re-delivered for 95s",
				experiments.ChaosSnapshotCorruption)
		}},
		{"clockskew", "adversarial: the controller's clock steps +60s and back", func(seed uint64) {
			runChaos(seed, "the controller's clock steps +60s at t=200s and back at t=400s",
				experiments.ChaosClockSkew)
		}},
		{"ctrl-partition", "control channel: the controller is partitioned from every engine for 150s", func(seed uint64) {
			runChaos(seed, "the controller endpoint is partitioned in both directions for 150s: "+
				"unreachable declarations, epoch fencing, engine autonomy, then recovery",
				experiments.ChaosCtrlPartition)
		}},
		{"ctrl-asym", "control channel: one engine's link toward the controller is cut for 150s", func(seed uint64) {
			runChaos(seed, "one engine's link toward the controller is cut for 150s (half-open): "+
				"the controller declares it unreachable from silence while its lease keeps renewing",
				experiments.ChaosCtrlAsymPartition)
		}},
		{"ctrl-lossy", "control channel: 30% loss and 15% duplication under an overload pulse", func(seed uint64) {
			runChaos(seed, "every control link degrades to 30% loss, 15% duplication and jittered latency for 200s "+
				"while an overload pulse forces retuning actions through it",
				experiments.ChaosCtrlLossy)
		}},
		{"ctrl-delayed", "control channel: snapshot reports delayed past the measurement interval", func(seed uint64) {
			runChaos(seed, "engine snapshot reports are delayed by 12s — past the 10s interval — for 150s: "+
				"the staleness guard must reject them while the failure detector stays reachable",
				experiments.ChaosCtrlDelayedSnapshots)
		}},
		{"flash-crowd", "temporal: referral-event crowd surges over an OLTP baseline in MMPP bursts", func(seed uint64) {
			runTemporal(seed, "a flash crowd lands on a steady OLTP baseline at t=300s — 10s ramp to a "+
				"160 qps peak, power-law decay — and the controller must provision into the surge",
				experiments.FlashCrowd)
		}},
		{"diurnal-shift", "temporal: closed-loop clients follow a day/night cycle; provision into the peak, shrink after", func(seed uint64) {
			runTemporal(seed, "closed-loop clients follow a diurnal cycle: the trough fits one replica, "+
				"the midday peak does not — capacity must follow the pattern in both directions",
				experiments.DiurnalShift)
		}},
		{"olap-antagonist", "temporal: a scan-heavy OLAP app co-located inside one TPC-W replica's engine", func(seed uint64) {
			runTemporal(seed, "a scan-heavy OLAP antagonist attaches inside the second TPC-W replica's "+
				"database engine for [300s, 500s), polluting the shared buffer pool (§5.4 co-location)",
				experiments.OLAPAntagonist)
		}},
		{"trace-replay-identity", "temporal: record flash-crowd's offered load, replay it, require a bit-identical run", func(seed uint64) {
			runTemporal(seed, "flash-crowd runs once while its offered load is recorded as workload-trace-v2, "+
				"then the trace is replayed into a fresh identically-seeded testbed; the replayed "+
				"run must reproduce the recorded intervals and actions byte-for-byte",
				experiments.TraceReplayIdentity)
		}},
	}
	for _, tpl := range experiments.GuardTemplates() {
		tpl := tpl
		defs = append(defs, scenarioDef{
			"guard-" + tpl,
			"pathological " + tpl + " policy under the action watchdog",
			func(seed uint64) { runGuard(seed, tpl) },
		})
	}
	return defs
}

func scenarioNames() string {
	var names []string
	for _, d := range scenarios() {
		names = append(names, d.name)
	}
	return strings.Join(names, "|")
}

func main() {
	scenario := flag.String("scenario", "", scenarioNames())
	seed := flag.Uint64("seed", 1, "simulation seed")
	record := flag.String("record", "", "write a synthetic TPC-W page-access trace to FILE and exit")
	recordApp := flag.String("record-app", "tpcw", "application to record: tpcw|tpcw-noindex|rubis")
	recordN := flag.Int("record-n", 500000, "accesses to record")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug endpoints on this address (e.g. :9090)")
	verbose := flag.Bool("v", false, "print each controller decision to stderr as it happens")
	sigStore := flag.String("sig.store", "",
		"persist stable-state signatures to FILE: warm-start on launch, save on completion")
	traceSample := flag.Float64("trace.sample", 0,
		"head-sample this fraction of queries into span traces (0 disables, 1.0 traces everything)")
	traceRing := flag.Int("trace.ring", 0,
		"finished traces retained for /debug/trace (0 = default 512)")
	runOut := flag.String("run.out", "",
		"flush a RUN_*.json flight recording (metric time series + sampled traces) to FILE on completion")
	pprof := flag.Bool("obs.pprof", false, "mount net/http/pprof under /debug/pprof/ on -obs.addr")
	ctrlFlags := obscli.RegisterCtrlFlags()
	wlFlags := obscli.RegisterWlFlags()
	flag.Parse()
	ctrlFlags.Apply()

	if *record != "" {
		// -record dumps a page-access trace and exits without running a
		// scenario, so a -wl.* flag would be silently ignored.
		if name, set := wlFlags.AnySet(); set {
			fmt.Fprintf(os.Stderr, "outlierlb: %s applies only to scenario runs, not -record\n", name)
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
	var chosen *scenarioDef
	for _, d := range scenarios() {
		if d.name == *scenario {
			d := d
			chosen = &d
			break
		}
	}
	if chosen == nil {
		if *scenario == "" {
			fmt.Fprintln(os.Stderr, "outlierlb: need -scenario NAME or -record FILE; scenarios:")
		} else {
			fmt.Fprintf(os.Stderr, "outlierlb: unknown scenario %q; valid scenarios:\n", *scenario)
		}
		for _, d := range scenarios() {
			fmt.Fprintf(os.Stderr, "  %-35s %s\n", d.name, d.desc)
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
	if err := wlFlags.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(2)
	}

	chosen.run(*seed)

	if err := wlFlags.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	session.Finish()
	session.WaitForInterrupt()
}

func runTemporal(seed uint64, desc string, fn func(uint64) (*experiments.TemporalResult, error)) {
	fmt.Println("scenario:", desc)
	fmt.Println()
	r, err := fn(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
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

func runGuard(seed uint64, template string) {
	fmt.Printf("scenario: pathological %s policy is switched on mid-run;\n", template)
	fmt.Println("the action watchdog must detect each harmful action by its fitness")
	fmt.Println("regression, roll it back, and contain the repetition")
	fmt.Println()
	r, err := experiments.GuardScenario(seed, template)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
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

func runFailure(seed uint64) {
	fmt.Println("scenario: one of two TPC-W replicas crashes under load")
	fmt.Println()
	r, err := experiments.FailureRecovery(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
	fmt.Printf("healthy latency:   %.3fs (two replicas)\n", r.BeforeLatency)
	fmt.Printf("failover latency:  %.3fs (survivor saturated)\n", r.DuringLatency)
	fmt.Printf("recovered latency: %.3fs (replacement provisioned: %v)\n", r.AfterLatency, r.Provisioned)
	fmt.Printf("client errors:     %d\n", r.ClientErrors)
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
}

func runChaos(seed uint64, desc string, fn func(uint64) (*experiments.ChaosResult, error)) {
	fmt.Println("scenario:", desc)
	fmt.Println()
	r, err := fn(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
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

func runOverload(seed uint64) {
	fmt.Println("scenario: a 2x load pulse on a fully allocated cluster; admission control")
	fmt.Println("sheds the lowest-impact query classes until the SLA recovers, then readmits them")
	fmt.Println()
	r, err := experiments.Overload(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "outlierlb:", err)
		os.Exit(1)
	}
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

func runLockContention(seed uint64) {
	fmt.Println("scenario: a write query invoked with wrong arguments convoys the accounts table")
	fmt.Println("(the paper's §7 future work: outlier detection for lock contention)")
	fmt.Println()
	r := experiments.LockContention(seed)
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

func runCPU(seed uint64) {
	fmt.Println("scenario: sinusoid client load against TPC-W (§5.2)")
	fmt.Println("the controller provisions replicas on CPU saturation and releases them at the trough")
	fmt.Println()
	r := experiments.Figure3(seed)
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

func runIndexDrop(seed uint64) {
	fmt.Println("scenario: the O_DATE index is dropped; BestSeller degrades to a table scan (§5.3)")
	fmt.Println()
	r := experiments.Figure4(seed)
	fmt.Println("per-class ratios vs stable state (latency / throughput / misses / read-ahead):")
	for i, c := range r.Classes {
		fmt.Printf("  %2d %-22s %7.2f %7.2f %7.2f %10.2f\n", i+1, c,
			r.LatencyRatio[i], r.ThroughputRatio[i], r.MissesRatio[i], r.ReadAheadRatio[i])
	}
	fmt.Printf("\noutlier contexts on memory counters: %v\n", r.MemoryOutliers)
	fmt.Printf("MRC recomputation confirms: %v\n", r.Confirmed)
	quota, migrate := experiments.AblationQuotaVsMigrate(seed)
	fmt.Printf("\nremedies: quota keeps 1 machine at %.3fs avg; migration spends %d machines for %.3fs\n",
		quota.FinalLatency, migrate.ServersUsed, migrate.FinalLatency)
}

func runConsolidation(seed uint64) {
	fmt.Println("scenario: RUBiS starts inside TPC-W's database engine, sharing its buffer pool (§5.4)")
	fmt.Println()
	r := experiments.Table2(seed)
	for _, row := range r.Rows {
		fmt.Printf("%-38s latency=%6.3fs WIPS=%6.2f\n", row.Placement, row.Latency, row.WIPS)
	}
	fmt.Println()
	for _, a := range r.Actions {
		fmt.Println("action:", a)
	}
	fmt.Printf("\nthe diagnosis rescheduled %q onto a different replica\n", r.MovedClass)
}

func runIOContention(seed uint64) {
	fmt.Println("scenario: two RUBiS instances in two Xen domains on one physical server (§5.5)")
	fmt.Println()
	r := experiments.Table3(seed)
	for _, row := range r.Rows {
		fmt.Printf("domain-1=%-8s domain-2=%-22s latency=%6.3fs WIPS=%6.2f\n",
			row.Domain1, row.Domain2, row.Latency, row.WIPS)
	}
	fmt.Printf("\ndiagnosis from dom-0 statistics: CPU %.0f%% (not saturated); %s contributes %.0f%% of its application's I/O\n",
		100*r.CPUUtilization, r.TopIOClass, 100*r.TopIOShare)
	fmt.Println("remedy: reschedule that class onto a different physical machine")
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
