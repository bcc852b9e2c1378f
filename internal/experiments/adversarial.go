package experiments

import (
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/faults"
)

// Adversarial chaos scenarios: the data path stays perfectly healthy
// while the control plane's telemetry lies to it. The robustness claim
// under test inverts the usual chaos claims — clients must notice
// NOTHING (no errors, no latency inflation, no capacity churn), because
// the only way these faults can hurt anyone is if the controller acts
// on the lies. The defenses are the analyzer guards
// (core.Config.FrozenMetricsAfter, core.Config.ClockGuard), enabled
// here and only here: with them off the shared chaos config is
// byte-identical to the non-adversarial scenarios.

// adversarialGuards enables the telemetry defenses on the shared chaos
// config.
func adversarialGuards(cfg *core.Config) {
	cfg.FrozenMetricsAfter = 2
	cfg.ClockGuard = true
}

// ChaosByzantineMetrics makes one healthy server lie for 200 s: its
// reported CPU utilization is halved and frozen, and its engine's
// per-class latency reports are scaled 8× and frozen. Uniform latency
// scaling cannot create IQR outliers (quartiles scale together), and
// the frozen-sample guards must blacklist the lying reporter before the
// fake idle utilization feeds a shrink or the fake latency feeds a
// stable-signature baseline. Want: zero client errors, zero outlier
// diagnoses on the target, zero capacity churn, degraded-analysis
// narration while the lie is in force.
func (o Options) ChaosByzantineMetrics(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 400.0, 600.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name:   "byzantine-metrics",
		mutate: adversarialGuards,
		inject: func(in *faults.Injector, _ *testbed, target *cluster.Replica) {
			in.ByzantineMetrics(target.Server(), target.Engine(), faultAt, clearAt, 0.5, 8)
		},
	})
}

// ChaosSnapshotCorruption corrupts one engine's metric snapshots: a
// drop window (every interval lost in transit, the controller sees an
// empty report) followed by a freeze window (the first snapshot
// re-delivered forever — a duplicated interval). The empty-snapshot
// guard and the frozen-snapshot hash must keep the duplicated data out
// of the analyzer. Want: zero client errors, no outlier diagnoses on
// the target, no capacity churn.
func (o Options) ChaosSnapshotCorruption(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 400.0, 600.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name:   "snapshot-corruption",
		mutate: adversarialGuards,
		inject: func(in *faults.Injector, _ *testbed, target *cluster.Replica) {
			name := target.Server().Name()
			// Dropped intervals for the first half of the window, then a
			// duplicated interval for the second half (disjoint, with a 5 s
			// gap so the clear and the next install never race at one
			// instant).
			in.SnapshotCorruption(target.Engine(), name, faultAt, 295, true)
			in.SnapshotCorruption(target.Engine(), name, 305, clearAt, false)
		},
	})
}

// ChaosClockSkew steps the controller's clock +60 s for 200 s, then
// back. Each step makes one measured interval look 7× (or ≤ 0×) its
// configured length; rates divided by those windows are garbage. The
// ClockGuard clamps the window, narrates the anomaly and skips gap
// normalization for the tick. Want: zero client errors, no outlier
// diagnoses anywhere during the skew, no capacity churn.
func (o Options) ChaosClockSkew(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 400.0, 600.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name:   "clock-skew",
		mutate: adversarialGuards,
		inject: func(in *faults.Injector, tb *testbed, _ *cluster.Replica) {
			in.ClockSkew(tb.ctl, "controller", faultAt, clearAt, 60)
		},
	})
}
