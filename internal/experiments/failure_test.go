package experiments

import (
	"testing"

	"outlierlb/internal/core"
)

func TestFailureRecovery(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r, err := Options{}.FailureRecovery(1)
	if err != nil {
		t.Fatal(err)
	}
	// Availability: no client ever sees an error — the survivor keeps
	// serving throughout.
	if r.ClientErrors != 0 {
		t.Fatalf("%d client errors during failover", r.ClientErrors)
	}
	// The crash hurts...
	if r.DuringLatency < 3*r.BeforeLatency {
		t.Fatalf("failover latency %.3f not ≫ healthy %.3f", r.DuringLatency, r.BeforeLatency)
	}
	// ...the controller restores capacity...
	if !r.Provisioned {
		t.Fatalf("no replacement provisioned; actions: %v", r.Actions)
	}
	// ...and performance returns to the healthy baseline.
	if r.AfterLatency > 1.5*r.BeforeLatency {
		t.Fatalf("post-recovery latency %.3f vs healthy %.3f", r.AfterLatency, r.BeforeLatency)
	}
	// Only capacity actions: a failure is not a memory problem.
	for _, a := range r.Actions {
		if a.Kind != core.ActionProvision && a.Kind != core.ActionShrink &&
			a.Kind != core.ActionExhausted {
			t.Fatalf("unexpected action kind for a crash: %v", a)
		}
	}
}
