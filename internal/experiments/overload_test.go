package experiments

import (
	"reflect"
	"testing"
)

// overloadShedOrder is the expected ascending-impact shed order: under a
// uniform load pulse every class's ratios inflate alike, so the per-class
// heaviness weight — proportional to mix weight — decides the ranking.
var overloadShedOrder = []string{"Audit", "Report", "Recommend", "Browse", "Search"}

func checkOverload(t *testing.T, res *OverloadResult) {
	t.Helper()
	const slaLatency = 1.0
	// The protected-class window overlaps hysteresis probes (readmit →
	// violate → re-shed), so its mean runs slightly above a clean SLA
	// window; bounded means within 25% of the SLA, against an
	// unprotected closed-loop saturation latency of ~1.5 s.
	const protectedBound = 1.25 * slaLatency
	if res.ClientErrors != 0 {
		t.Errorf("seed %d: %d client errors, want 0 (rejections must be typed)", res.Seed, res.ClientErrors)
	}
	if res.NominalLatency <= 0 || res.NominalLatency > slaLatency {
		t.Errorf("seed %d: nominal latency %.3f outside (0, %.1f]", res.Seed, res.NominalLatency, slaLatency)
	}
	if res.PeakLatency <= slaLatency {
		t.Errorf("seed %d: peak latency %.3f ≤ SLA — the pulse never overloaded the cluster", res.Seed, res.PeakLatency)
	}
	if res.ProtectedLatency <= 0 || res.ProtectedLatency > protectedBound {
		t.Errorf("seed %d: protected-class latency %.3f outside (0, %.2f] after shed convergence",
			res.Seed, res.ProtectedLatency, protectedBound)
	}
	if res.FinalLatency <= 0 || res.FinalLatency > slaLatency {
		t.Errorf("seed %d: final latency %.3f outside (0, %.1f]", res.Seed, res.FinalLatency, slaLatency)
	}
	if res.ShedInteractions == 0 {
		t.Errorf("seed %d: no interactions shed during a 2x overload", res.Seed)
	}
	if len(res.ShedOrder) < 2 {
		t.Errorf("seed %d: shed order %v too short — escalation never happened", res.Seed, res.ShedOrder)
	}
	for i, class := range res.ShedOrder {
		if class == overloadProtectedClass {
			t.Errorf("seed %d: protected class shed (order %v)", res.Seed, res.ShedOrder)
		}
		if i < len(overloadShedOrder) && class != overloadShedOrder[i] {
			t.Errorf("seed %d: shed order %v is not a prefix of %v", res.Seed, res.ShedOrder, overloadShedOrder)
			break
		}
	}
	if len(res.FinalShedClasses) != 0 {
		t.Errorf("seed %d: classes still shed at end of run: %v", res.Seed, res.FinalShedClasses)
	}
	if res.Readmits == 0 {
		t.Errorf("seed %d: no readmissions recorded", res.Seed)
	}
	if res.FinalWindowRejections != 0 {
		t.Errorf("seed %d: %d rejections in the final nominal-load window, want 0",
			res.Seed, res.FinalWindowRejections)
	}
}

// TestOverloadProtection is the overload chaos scenario: a 2× load pulse
// on a fully allocated cluster must be absorbed by impact-ranked load
// shedding — protected classes keep their SLA, sheds escalate lowest
// impact first, and everything is readmitted once the pulse passes.
func TestOverloadProtection(t *testing.T) {
	t.Parallel()
	forSeeds(t, []uint64{1, 2, 3}, func(t *testing.T, seed uint64) {
		res, err := Options{}.Overload(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: nominal %.3f peak %.3f protected %.3f final %.3f shed=%v resheds=%d readmits=%d shedN=%d",
			seed, res.NominalLatency, res.PeakLatency, res.ProtectedLatency, res.FinalLatency,
			res.ShedOrder, res.Resheds, res.Readmits, res.ShedInteractions)
		checkOverload(t, res)
	})
}

// TestOverloadDeterminism: the same seed must reproduce the same run.
func TestOverloadDeterminism(t *testing.T) {
	t.Parallel()
	a, err := Options{}.Overload(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Options{}.Overload(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ShedOrder, b.ShedOrder) {
		t.Errorf("shed order differs: %v vs %v", a.ShedOrder, b.ShedOrder)
	}
	if a.ShedInteractions != b.ShedInteractions {
		t.Errorf("shed interactions differ: %d vs %d", a.ShedInteractions, b.ShedInteractions)
	}
	if a.NominalLatency != b.NominalLatency || a.PeakLatency != b.PeakLatency ||
		a.ProtectedLatency != b.ProtectedLatency || a.FinalLatency != b.FinalLatency {
		t.Errorf("latencies differ: %+v vs %+v", a, b)
	}
	if a.Readmits != b.Readmits || a.Resheds != b.Resheds {
		t.Errorf("action counts differ: %d/%d vs %d/%d", a.Readmits, a.Resheds, b.Readmits, b.Resheds)
	}
}
