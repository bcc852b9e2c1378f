package core

import (
	"math"

	"outlierlb/internal/cluster"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
)

// ShedCandidate is one sheddable query class with its aggregate §3.3.1
// metric impact, as presented to a Policy's shed decision.
type ShedCandidate struct {
	ID metrics.ClassID
	// Impact is the class's summed metric impact across the
	// application's replicas — the ranking brownout shedding uses.
	Impact float64
}

// Policy is the controller's pluggable decision seam: the three places
// where the diagnosis chooses WHICH class or replica an action applies
// to (shed victim, reschedule target, readmission order), plus a
// force-shed override. A controller starts with DefaultPolicy, and
// SetPolicy(nil) reinstates it; DefaultPolicy is also the embedding
// base for the pathological templates that the action watchdog
// (internal/guard) is tested against.
type Policy interface {
	// Name identifies the policy in action details and scorecards.
	Name() string
	// ForceShed makes the controller shed on every eligible tick —
	// violated or stable — instead of running the diagnosis. Only the
	// reject-all pathological template returns true.
	ForceShed() bool
	// ShedVictim picks the class to shed from the eligible candidates
	// (unprotected, not already shed). Returning false sheds nothing.
	ShedVictim(cands []ShedCandidate) (metrics.ClassID, bool)
	// RescheduleTarget picks the replica a problem class moves to, from
	// the owning application's current replicas. Returning nil asks the
	// controller to provision a fresh replica instead (DefaultPolicy's
	// answer when no replica on another server exists).
	RescheduleTarget(now float64, from *server.Server, reps []*cluster.Replica) *cluster.Replica
	// ReadmitChoice picks which shed class returns when the brownout
	// hysteresis allows one re-admission. shed is the current shed list,
	// oldest first; an out-of-list answer falls back to LIFO.
	ReadmitChoice(shed []metrics.ClassID) metrics.ClassID
}

// DefaultPolicy is the controller's decision policy: shed the
// lowest-impact class, move to the first replica on another server,
// readmit LIFO. Pathological templates embed it and override single
// decisions.
type DefaultPolicy struct{}

// Name implements Policy.
func (DefaultPolicy) Name() string { return "default" }

// ForceShed implements Policy.
func (DefaultPolicy) ForceShed() bool { return false }

// ShedVictim implements Policy: the lowest summed impact below +Inf
// wins, the earliest candidate on a tie.
func (DefaultPolicy) ShedVictim(cands []ShedCandidate) (metrics.ClassID, bool) {
	var victim metrics.ClassID
	best := math.Inf(1)
	found := false
	for _, cd := range cands {
		if cd.Impact < best {
			best, victim, found = cd.Impact, cd.ID, true
		}
	}
	return victim, found
}

// RescheduleTarget implements Policy: the first replica hosted on a
// server other than from, nil (provision) when none exists.
func (DefaultPolicy) RescheduleTarget(_ float64, from *server.Server, reps []*cluster.Replica) *cluster.Replica {
	for _, r := range reps {
		if r.Server() != from {
			return r
		}
	}
	return nil
}

// ReadmitChoice implements Policy: LIFO — the most recently shed
// (highest-impact, most valuable) class returns first.
func (DefaultPolicy) ReadmitChoice(shed []metrics.ClassID) metrics.ClassID {
	return shed[len(shed)-1]
}

var _ Policy = DefaultPolicy{}
