package experiments

import (
	"strings"
	"testing"

	"outlierlb/internal/core"
)

func TestLockContentionDiagnosis(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	r := Options{}.LockContention(1)
	// The anomaly causes a large, durable latency increase.
	if r.ContendedLatency < 10*r.StableLatency {
		t.Fatalf("contention latency %.3f not ≫ stable %.3f", r.ContendedLatency, r.StableLatency)
	}
	// The diagnosis flags a victim and names the holder.
	if r.ReportedVictim == "" {
		t.Fatalf("no lock-contention report; actions: %v", r.Actions)
	}
	if !strings.Contains(r.ReportedHolder, "UpdateBalance") {
		t.Fatalf("holder detail %q does not name UpdateBalance", r.ReportedHolder)
	}
	// The controller takes no destructive action for a lock problem: no
	// reschedules, quotas or isolations, only reports.
	for _, a := range r.Actions {
		switch a.Kind {
		case core.ActionLockReport:
		default:
			t.Fatalf("unexpected action for a lock problem: %v", a)
		}
	}
}

func TestLockContentionDeterministic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long scenario")
	}
	a, b := Options{}.LockContention(3), Options{}.LockContention(3)
	if a.StableLatency != b.StableLatency || a.ContendedLatency != b.ContendedLatency ||
		a.ReportedVictim != b.ReportedVictim {
		t.Fatal("lock scenario not deterministic")
	}
}
