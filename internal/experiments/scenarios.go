package experiments

import (
	"fmt"
	"slices"

	"outlierlb/internal/resil"
)

// Scenario is one entry of the registry: one workload under one
// controller, run once per seed.
type Scenario struct {
	// Name is the canonical name: the resilience scorecard's scenario
	// name, or the paper's figure or table.
	Name string
	// Aliases are older command-line names that still select the entry.
	Aliases []string
	// Doc is the one-line description the tools list.
	Doc string
	// About is the narration outlierlb prints ahead of the run's report.
	About string
	// Run runs the scenario once. The result is the scenario method's
	// result, for example *Figure3Result or *ChaosResult.
	Run func(o Options, seed uint64) (any, error)
	// Scored marks a run whose result carries a resilience scorecard
	// (see ScorecardOf); benchrunner -resil sweeps these.
	Scored bool
	// WantMitigate marks runs where the control plane must visibly act
	// (retry, breaker trip, retuning action). The metric-integrity
	// scenarios leave it false: their correct response is to absorb the
	// lying input without acting. WantRevert marks the pathological-
	// policy runs, where a scorecard without a watchdog rollback means
	// the guard slept through the fault.
	WantMitigate, WantRevert bool
}

// run adapts a scenario method to Scenario.Run.
func run[R any](fn func(Options, uint64) (R, error)) func(Options, uint64) (any, error) {
	return func(o Options, seed uint64) (any, error) { return fn(o, seed) }
}

// runOK adapts a scenario method that cannot fail to Scenario.Run.
func runOK[R any](fn func(Options, uint64) R) func(Options, uint64) (any, error) {
	return func(o Options, seed uint64) (any, error) { return fn(o, seed), nil }
}

// Scenarios returns the registry in listing order: the paper's figures
// and tables, the §7 future-work scenarios, then the chaos, adversarial,
// control-channel, temporal and guard-lab scenarios. The command-line
// tools list, validate and dispatch scenario names through it.
func Scenarios() []Scenario {
	defs := []Scenario{
		{Name: "fig3", Aliases: []string{"cpu"}, Run: runOK(Options.Figure3),
			Doc: "Figure 3 (§5.2): sinusoid load, reactive provisioning",
			About: "sinusoid client load against TPC-W (§5.2)\n" +
				"the controller provisions replicas on CPU saturation and releases them at the trough"},
		{Name: "fig4", Aliases: []string{"indexdrop"}, Run: runOK(Options.Figure4),
			Doc:   "Figure 4 (§5.3): O_DATE index drop, quota enforcement",
			About: "the O_DATE index is dropped; BestSeller degrades to a table scan (§5.3)"},
		{Name: "fig5", Run: runOK(Options.Figure5),
			Doc:   "Figure 5 (§5.3): miss-ratio curve of BestSeller",
			About: "BestSeller's miss-ratio curve under the normal, indexed configuration (§5.3)"},
		{Name: "fig6", Run: runOK(Options.Figure6),
			Doc:   "Figure 6 (§5.4): miss-ratio curve of RUBiS SearchItemsByRegion",
			About: "the miss-ratio curve of RUBiS SearchItemsByRegion (§5.4)"},
		{Name: "table1", Run: runOK(Options.Table1),
			Doc:   "Table 1 (§5.3): hit ratios of shared, partitioned and exclusive pools",
			About: "BestSeller and the rest of TPC-W share, partition or split one buffer pool (§5.3)"},
		{Name: "table2", Aliases: []string{"consolidation"}, Run: runOK(Options.Table2),
			Doc:   "Table 2 (§5.4): two apps in one DBMS, class reschedule",
			About: "RUBiS starts inside TPC-W's database engine, sharing its buffer pool (§5.4)"},
		{Name: "table3", Aliases: []string{"iocontention"}, Run: runOK(Options.Table3),
			Doc:   "Table 3 (§5.5): two VMs, dom-0 I/O interference",
			About: "two RUBiS instances in two Xen domains on one physical server (§5.5)"},
		{Name: "lockcontention", Run: runOK(Options.LockContention),
			Doc: "§7 future work: lock-wait outliers",
			About: "a write query invoked with wrong arguments convoys the accounts table\n" +
				"(the paper's §7 future work: outlier detection for lock contention)"},
		{Name: "failure", Run: run(Options.FailureRecovery),
			Doc:   "§7 future work: replica crash + recovery",
			About: "one of two TPC-W replicas crashes under load"},
		{Name: "overload", Run: run(Options.Overload),
			Doc: "chaos: 2x load pulse, impact-ranked shedding",
			About: "a 2x load pulse on a fully allocated cluster; admission control\n" +
				"sheds the lowest-impact query classes until the SLA recovers, then readmits them"},
		{Name: "gray-failure", Aliases: []string{"grayfailure"}, Run: run(Options.ChaosGrayFailure),
			Scored: true, WantMitigate: true,
			Doc:   "chaos: one replica's disk degrades 8x for 200s",
			About: "one replica's disk degrades 8x for 200s (gray failure: it answers, slowly)"},
		{Name: "flapping", Run: run(Options.ChaosFlapping),
			Scored: true, WantMitigate: true,
			Doc:   "chaos: one replica cycles down/up every ~15s",
			About: "one replica cycles down/up every ~15s for 120s"},
		{Name: "metric-blackout", Aliases: []string{"blackout"}, Run: run(Options.ChaosMetricBlackout),
			Scored: true, WantMitigate: true,
			Doc:   "chaos: one server's metrics go dark for 150s",
			About: "one server's monitoring goes dark for 150s while it keeps serving"},
		{Name: "byzantine-metrics", Aliases: []string{"byzantine"}, Run: run(Options.ChaosByzantineMetrics),
			Scored: true,
			Doc:    "adversarial: one replica's monitoring lies (scaled CPU, inflated latency)",
			About:  "one healthy replica's monitoring lies for 200s (scaled CPU, 8x latency snapshots)"},
		{Name: "snapshot-corruption", Aliases: []string{"snapcorrupt"}, Run: run(Options.ChaosSnapshotCorruption),
			Scored: true,
			Doc:    "adversarial: one engine's snapshots dropped, then duplicated",
			About:  "one engine's snapshots are dropped for 95s, then a stale snapshot is re-delivered for 95s"},
		{Name: "clock-skew", Aliases: []string{"clockskew"}, Run: run(Options.ChaosClockSkew),
			Scored: true,
			Doc:    "adversarial: the controller's clock steps +60s and back",
			About:  "the controller's clock steps +60s at t=200s and back at t=400s"},
		// The control-channel scenarios attack the message channel itself.
		// Partitions and loss must be visibly acted on (epoch fences,
		// retransmissions); delayed snapshots are absorb-only: the
		// staleness guard rejects the old reports and nothing else happens.
		{Name: "ctrl-partition", Run: run(Options.ChaosCtrlPartition),
			Scored: true, WantMitigate: true,
			Doc: "control channel: the controller is partitioned from every engine for 150s",
			About: "the controller endpoint is partitioned in both directions for 150s: " +
				"unreachable declarations, epoch fencing, engine autonomy, then recovery"},
		{Name: "ctrl-asym-partition", Aliases: []string{"ctrl-asym"}, Run: run(Options.ChaosCtrlAsymPartition),
			Scored: true, WantMitigate: true,
			Doc: "control channel: one engine's link toward the controller is cut for 150s",
			About: "one engine's link toward the controller is cut for 150s (half-open): " +
				"the controller declares it unreachable from silence while its lease keeps renewing"},
		{Name: "ctrl-lossy", Run: run(Options.ChaosCtrlLossy),
			Scored: true, WantMitigate: true,
			Doc: "control channel: 30% loss and 15% duplication under an overload pulse",
			About: "every control link degrades to 30% loss, 15% duplication and jittered latency for 200s " +
				"while an overload pulse forces retuning actions through it"},
		{Name: "ctrl-delayed-snapshots", Aliases: []string{"ctrl-delayed"}, Run: run(Options.ChaosCtrlDelayedSnapshots),
			Scored: true,
			Doc:    "control channel: snapshot reports delayed past the measurement interval",
			About: "engine snapshot reports are delayed by 12s — past the 10s interval — for 150s: " +
				"the staleness guard must reject them while the failure detector stays reachable"},
		// The temporal scenarios stress the control plane with load shape
		// rather than injected faults: the surge window is the scorecard's
		// fault window, and each demands visible mitigation (provisioning,
		// brownout shedding or coarse isolation). trace-replay-identity
		// also fails outright if the replayed run diverges from the
		// recorded one.
		{Name: "flash-crowd", Run: run(Options.FlashCrowd),
			Scored: true, WantMitigate: true,
			Doc: "temporal: referral-event crowd surges over an OLTP baseline in MMPP bursts",
			About: "a flash crowd lands on a steady OLTP baseline at t=300s — 10s ramp to a " +
				"160 qps peak, power-law decay — and the controller must provision into the surge"},
		{Name: "diurnal-shift", Run: run(Options.DiurnalShift),
			Scored: true, WantMitigate: true,
			Doc: "temporal: closed-loop clients follow a day/night cycle; provision into the peak, shrink after",
			About: "closed-loop clients follow a diurnal cycle: the trough fits one replica, " +
				"the midday peak does not — capacity must follow the pattern in both directions"},
		{Name: "olap-antagonist", Run: run(Options.OLAPAntagonist),
			Scored: true, WantMitigate: true,
			Doc: "temporal: a scan-heavy OLAP app co-located inside one TPC-W replica's engine",
			About: "a scan-heavy OLAP antagonist attaches inside the second TPC-W replica's " +
				"database engine for [300s, 500s), polluting the shared buffer pool (§5.4 co-location)"},
		{Name: "trace-replay-identity", Aliases: []string{"trace-replay"}, Run: run(Options.TraceReplayIdentity),
			Scored: true, WantMitigate: true,
			Doc: "temporal: record flash-crowd's offered load, replay it, require a bit-identical run",
			About: "flash-crowd runs once while its offered load is recorded as workload-trace-v2, " +
				"then the trace is replayed into a fresh identically-seeded testbed; the replayed " +
				"run must reproduce the recorded intervals and actions byte-for-byte"},
	}
	for _, tpl := range GuardTemplates() {
		defs = append(defs, Scenario{
			Name: "guard-" + tpl,
			Run: func(o Options, seed uint64) (any, error) {
				return o.GuardScenario(seed, tpl)
			},
			Scored: true, WantMitigate: true, WantRevert: true,
			Doc: "pathological " + tpl + " policy under the action watchdog",
			About: fmt.Sprintf("pathological %s policy is switched on mid-run;\n"+
				"the action watchdog must detect each harmful action by its fitness\n"+
				"regression, roll it back, and contain the repetition", tpl),
		})
	}
	return defs
}

// Lookup returns the registry entry a canonical name or an alias selects.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name || slices.Contains(sc.Aliases, name) {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ScorecardOf returns the resilience scorecard a Scored entry's result
// carries; any other result gets the zero Scorecard.
func ScorecardOf(result any) resil.Scorecard {
	switch r := result.(type) {
	case *ChaosResult:
		return r.Scorecard
	case *TemporalResult:
		return r.Scorecard
	case *GuardResult:
		return r.Scorecard
	}
	return resil.Scorecard{}
}
