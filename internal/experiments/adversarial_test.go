package experiments

import (
	"testing"

	"outlierlb/internal/obs"
)

// assertAdversarialInvariants checks the claims every adversarial
// scenario makes: the lying inputs must not leak into client-visible
// errors, must not fabricate a single outlier diagnosis against the
// targeted replica, and must not provoke capacity churn (no provisions,
// no shrinks) — the analyzer guards absorb the bad data and narrate the
// degradation instead of acting on it.
func assertAdversarialInvariants(t *testing.T, name string, r *ChaosResult) {
	t.Helper()
	if r.ClientErrors != 0 {
		t.Errorf("%s seed=%d: %d client errors, want 0", name, r.Seed, r.ClientErrors)
	}
	if r.TargetOutlierDiagnoses != 0 {
		t.Errorf("%s seed=%d: %d outlier diagnoses against the target; adversarial input fabricated outliers",
			name, r.Seed, r.TargetOutlierDiagnoses)
	}
	if r.Provisions != 0 || r.Shrinks != 0 {
		t.Errorf("%s seed=%d: %d provisions / %d shrinks; adversarial input must not drive capacity churn",
			name, r.Seed, r.Provisions, r.Shrinks)
	}
	if r.FinalLatency > 0.1 {
		t.Errorf("%s seed=%d: final latency %.3fs; run did not end at healthy baseline",
			name, r.Seed, r.FinalLatency)
	}
}

// TestAdversarialByzantineMetrics: a replica's monitoring agent lies
// (scaled CPU, inflated latency snapshots) while the machine itself is
// healthy. The frozen-metrics guard must classify the repeating samples
// as a metric fault and degrade analysis rather than diagnose outliers.
func TestAdversarialByzantineMetrics(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("adversarial scenarios run minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		res, err := Options{}.ChaosByzantineMetrics(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		assertAdversarialInvariants(t, "byzantine-metrics", res)
		if res.DegradedEvents == 0 {
			t.Errorf("seed=%d: no degraded-analysis narration for the lying replica", seed)
		}
	})
}

// TestAdversarialSnapshotCorruption: the target engine's snapshots
// first vanish, then freeze bit-identically. Both phases must be
// handled as metric faults — narrated, gap-normalized on recovery,
// never diagnosed as workload outliers.
func TestAdversarialSnapshotCorruption(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("adversarial scenarios run minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		res, err := Options{}.ChaosSnapshotCorruption(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		assertAdversarialInvariants(t, "snapshot-corruption", res)
		if res.DegradedEvents == 0 {
			t.Errorf("seed=%d: no degraded-analysis narration for the corrupted snapshots", seed)
		}
	})
}

// TestAdversarialClockSkew: the controller's own clock jumps forward
// and back while the simulation's time is correct. The clock guard must
// clamp the skewed windows (narrated as clock-anomaly degraded events,
// which carry no server) and the sampler resync must prevent the
// post-skew fake-idle reads from feeding a false shrink.
func TestAdversarialClockSkew(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("adversarial scenarios run minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		res, err := Options{}.ChaosClockSkew(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		assertAdversarialInvariants(t, "clock-skew", res)
		anomalies := 0
		for _, e := range res.Events {
			if e.Kind == obs.EventDegradedAnalysis && e.Server == "" {
				anomalies++
			}
		}
		if anomalies == 0 {
			t.Errorf("seed=%d: no clock-anomaly degraded-analysis events; the skew went unnoticed", seed)
		}
	})
}
