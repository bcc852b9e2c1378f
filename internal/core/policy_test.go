package core

import (
	"math"
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
)

// TestPolicyTemplates pins every decision of DefaultPolicy and of the
// four pathological templates, each of which overrides exactly one of
// them, and that SetPolicy(nil) reinstates DefaultPolicy.
func TestPolicyTemplates(t *testing.T) {
	cid := func(class string) metrics.ClassID { return metrics.ClassID{App: "shop", Class: class} }
	newServer := func(name string) *server.Server {
		return server.MustNew(server.Config{Name: name, Cores: 1, MemoryPages: 64})
	}
	s1, s2, s3, s4 := newServer("s1"), newServer("s2"), newServer("s3"), newServer("s4")
	replica := func(name string, srv *server.Server) *cluster.Replica {
		eng := engine.MustNew(engine.Config{Name: name, Pool: bufferpool.Config{Capacity: 64}}, srv)
		return cluster.NewReplica(eng, srv)
	}
	r1, r1b := replica("e1", s1), replica("e1b", s1)
	r2, r3, r4 := replica("e2", s2), replica("e3", s3), replica("e4", s4)
	// At time 0, s1 (the server a class moves off) has the largest CPU
	// backlog and s3 the largest among the others; s2 and s4 are idle.
	s1.RunCPU(0, 10)
	s3.RunCPU(0, 5)
	reps := []*cluster.Replica{r1, r2, r3, r4}

	// Ties at both ends: b and c share the lowest impact, a and d the
	// highest. Either way the earliest candidate wins.
	cands := []ShedCandidate{{cid("a"), 3}, {cid("b"), 1}, {cid("c"), 1}, {cid("d"), 3}}
	shed := []metrics.ClassID{cid("oldest"), cid("middle"), cid("newest")}

	for _, tc := range []struct {
		policy  Policy
		name    string
		force   bool
		victim  metrics.ClassID
		target  *cluster.Replica
		readmit metrics.ClassID
	}{
		{DefaultPolicy{}, "default", false, cid("b"), r2, cid("newest")},
		{PathologicalRejectAll{}, "reject-all-admission", true, cid("b"), r2, cid("newest")},
		{PathologicalInvertedShed{}, "inverted-shed-order", false, cid("a"), r2, cid("newest")},
		{PathologicalAlwaysBusiest{}, "always-busiest-placement", false, cid("b"), r3, cid("newest")},
		{PathologicalReverseReadmit{}, "reverse-priority-readmission", false, cid("b"), r2, cid("oldest")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy
			if got := p.Name(); got != tc.name {
				t.Errorf("Name() = %q", got)
			}
			if got := p.ForceShed(); got != tc.force {
				t.Errorf("ForceShed() = %v, want %v", got, tc.force)
			}
			if id, ok := p.ShedVictim(cands); !ok || id != tc.victim {
				t.Errorf("ShedVictim = %v, %v; want %v", id, ok, tc.victim)
			}
			if id, ok := p.ShedVictim(nil); ok {
				t.Errorf("ShedVictim shed %v from no candidates", id)
			}
			if got := p.RescheduleTarget(0, s1, reps); got != tc.target {
				t.Errorf("RescheduleTarget = %v, want %v", got, tc.target)
			}
			if got := p.RescheduleTarget(0, s1, []*cluster.Replica{r1, r1b}); got != nil {
				t.Errorf("RescheduleTarget = %v with every replica on the source server, want nil", got)
			}
			if got := p.ReadmitChoice(shed); got != tc.readmit {
				t.Errorf("ReadmitChoice = %v, want %v", got, tc.readmit)
			}
		})
	}

	// DefaultPolicy starts from +Inf with a strict <: a class of infinite
	// impact is never the lowest, so it is never shed.
	if id, ok := (DefaultPolicy{}).ShedVictim([]ShedCandidate{{cid("x"), math.Inf(1)}}); ok {
		t.Errorf("DefaultPolicy shed %v of infinite impact", id)
	}

	c, err := NewController(sim.NewEngine(1), cluster.NewManager(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.policy.(DefaultPolicy); !ok {
		t.Fatalf("new controller's policy is %T, want DefaultPolicy", c.policy)
	}
	c.SetPolicy(PathologicalRejectAll{})
	c.SetPolicy(nil)
	if _, ok := c.policy.(DefaultPolicy); !ok {
		t.Fatalf("SetPolicy(nil) left %T, want DefaultPolicy", c.policy)
	}
}
