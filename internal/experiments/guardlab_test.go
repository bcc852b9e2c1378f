package experiments

import (
	"testing"
)

// guardSeeds pins the seeds the guard lab runs under; the scenarios are
// deterministic, so any behavioural drift under these seeds is a real
// change, not noise.
var guardSeeds = []uint64{1, 2, 3}

// assertGuardInvariants checks the claims every pathological-policy
// scenario makes regardless of the template: the watchdog must judge at
// least one committed action harmful and roll it back while the policy
// is live (the scorecard's Reverted verdict), the run must recover to
// steady state within a finite time after the operator pulls the
// policy, and no client ever sees a scheduler error — the pathology is
// contained inside the control plane.
func assertGuardInvariants(t *testing.T, r *GuardResult) {
	t.Helper()
	if r.ClientErrors != 0 {
		t.Errorf("%s seed=%d: %d client errors, want 0", r.Template, r.Seed, r.ClientErrors)
	}
	if r.Watchdog.Reverts < 1 {
		t.Errorf("%s seed=%d: watchdog reverted %d actions, want >=1 (stats %+v)",
			r.Template, r.Seed, r.Watchdog.Reverts, r.Watchdog)
	}
	sc := r.Scorecard
	if !sc.Detected || !sc.Mitigated {
		t.Errorf("%s seed=%d: scorecard detected=%v mitigated=%v, want both true",
			r.Template, r.Seed, sc.Detected, sc.Mitigated)
	}
	if !sc.Reverted {
		t.Errorf("%s seed=%d: scorecard did not record a watchdog rollback inside the policy window",
			r.Template, r.Seed)
	}
	// "Within bounded intervals": the first mitigation must land while
	// the pathological policy is still live, not after the operator
	// pulls it.
	window := r.DisableAt - r.EnableAt
	if sc.TimeToMitigate < 0 || sc.TimeToMitigate > window {
		t.Errorf("%s seed=%d: time-to-mitigate %.0fs outside the %.0fs policy window",
			r.Template, r.Seed, sc.TimeToMitigate, window)
	}
	if !sc.Recovered {
		t.Errorf("%s seed=%d: run did not recover after the policy was pulled", r.Template, r.Seed)
	} else if sc.TimeToRecover < 0 {
		t.Errorf("%s seed=%d: recovered with negative time-to-recover %.0fs",
			r.Template, r.Seed, sc.TimeToRecover)
	}
}

// protectedBounds is the per-template ceiling on the protected-class /
// victim-app latency while the pathological policy is live. The bounds
// are loose — they assert containment (the guard kept the damage
// bounded), not a particular latency.
var protectedBounds = map[string]float64{
	// Checkout is never shed and the reject-all policy's harm is
	// reverted within two evaluation intervals: the protected class
	// stays at its uncontended baseline (~45 ms).
	"reject-all-admission": 0.5,
	// Shedding Search (the largest class) instead of Audit briefly
	// queues Checkout behind the backlog before the rollback lands.
	"inverted-shed-order": 1.0,
	// Readmitting bulk classes first under overload is the slowest
	// template to judge (readmission looks like recovery at first);
	// Checkout degrades but stays near the 1 s SLA, well under the
	// admission deadline.
	"reverse-priority-readmission": 1.5,
	// The victim app's final-window latency after the watchdog undid
	// the moves onto the thrashing server.
	"always-busiest-placement": 0.5,
}

// TestGuardWatchdogRevertsPathologies runs every pathological policy
// template under the action watchdog at three seeds and asserts the
// detect → revert → contain → recover story the scorecard tells.
func TestGuardWatchdogRevertsPathologies(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("guard lab runs minutes of virtual time")
	}
	forSeeds(t, guardSeeds, func(t *testing.T, seed uint64) {
		for _, tpl := range GuardTemplates() {
			t.Run(tpl, func(t *testing.T) {
				t.Parallel()
				res, err := Options{}.GuardScenario(seed, tpl)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", tpl, seed, err)
				}
				assertGuardInvariants(t, res)
				if bound := protectedBounds[tpl]; res.ProtectedLatency > bound {
					t.Errorf("%s seed=%d: protected latency %.3fs exceeds the %.1fs containment bound",
						tpl, seed, res.ProtectedLatency, bound)
				}
				t.Logf("%s seed=%d: %+v protected=%.3fs ttm=%.0fs ttr=%.0fs",
					tpl, seed, res.Watchdog, res.ProtectedLatency,
					res.Scorecard.TimeToMitigate, res.Scorecard.TimeToRecover)
			})
		}
	})
}

// TestGuardScenarioUnknownTemplate pins the error contract callers
// (cmd/outlierlb, benchrunner) rely on for up-front validation.
func TestGuardScenarioUnknownTemplate(t *testing.T) {
	t.Parallel()
	if _, err := (Options{}).GuardScenario(1, "no-such-template"); err == nil {
		t.Fatal("GuardScenario accepted an unknown template")
	}
}
