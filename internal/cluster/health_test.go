package cluster

import (
	"testing"

	"outlierlb/internal/obs"
)

// captureObs records every event the scheduler emits.
type captureObs struct {
	obs.Nop
	events []obs.Event
}

func (c *captureObs) Event(e obs.Event) { c.events = append(c.events, e) }

func (c *captureObs) kinds() []obs.EventKind {
	out := make([]obs.EventKind, len(c.events))
	for i, e := range c.events {
		out[i] = e.Kind
	}
	return out
}

func (c *captureObs) count(k obs.EventKind) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func healthSched(t *testing.T, deadline float64, reps ...*Replica) (*Scheduler, *captureObs) {
	t.Helper()
	s := newSched(t, reps...)
	s.SetHealthConfig(HealthConfig{QueryDeadline: deadline})
	rec := &captureObs{}
	s.SetObserver(rec)
	return s, rec
}

func TestHealthConfigDefaults(t *testing.T) {
	var c HealthConfig
	if c.Enabled() {
		t.Fatal("zero config enabled")
	}
	c = HealthConfig{QueryDeadline: 0.5}
	if !c.Enabled() {
		t.Fatal("deadline config disabled")
	}
	if maxRetries != 2 || breakerThreshold != 3 || breakerWindowCount != 6 || breakerCooldown != 10 {
		t.Fatalf("detector constants: retries %d, threshold %d, window count %d, cooldown %v",
			maxRetries, breakerThreshold, breakerWindowCount, breakerCooldown)
	}
}

func TestHealthStateString(t *testing.T) {
	for want, h := range map[string]HealthState{
		"healthy": HealthHealthy, "suspected": HealthSuspected,
		"failed": HealthFailed, "probation": HealthProbation,
	} {
		if h.String() != want {
			t.Fatalf("%v.String() = %q", int(h), h.String())
		}
	}
}

func TestDetectorTripsBreakerOnDownReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, rec := healthSched(t, 0.5, r1, r2)
	r1.SetDown(true)

	// Every read succeeds (retried onto s2); the detector walks s1 from
	// healthy through suspected to a tripped breaker.
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if got := s.Health(r1); got != HealthFailed {
		t.Fatalf("down replica health = %v, want failed", got)
	}
	if s.BreakerTrips(r1) != 1 {
		t.Fatalf("trips = %d, want 1", s.BreakerTrips(r1))
	}
	if rec.count(obs.EventReplicaSuspected) == 0 || rec.count(obs.EventBreakerTrip) != 1 {
		t.Fatalf("events = %v", rec.kinds())
	}
	if rec.count(obs.EventQueryRetry) == 0 {
		t.Fatal("no retry events emitted")
	}

	// With the breaker open (and the probe not yet due) the down replica
	// costs nothing: reads finish well inside the deadline.
	done, err := s.Submit(9, readID)
	if err != nil {
		t.Fatal(err)
	}
	if done-9 >= 0.5 {
		t.Fatalf("read paid a timeout after the breaker opened: latency %v", done-9)
	}
}

func TestProbeRecoversReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, rec := healthSched(t, 0.5, r1, r2)
	r1.SetDown(true)
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	if s.Health(r1) != HealthFailed {
		t.Fatalf("health = %v, want failed", s.Health(r1))
	}

	// The fault clears; once the cooldown elapses a read probes the
	// replica and it returns to service.
	r1.SetDown(false)
	before := r1.Engine().Pool().Stats(readID.String()).Accesses
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(100+float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Health(r1); got != HealthHealthy {
		t.Fatalf("health after probe = %v, want healthy", got)
	}
	if rec.count(obs.EventBreakerProbe) == 0 || rec.count(obs.EventReplicaRecovered) == 0 {
		t.Fatalf("probe/recovery events missing: %v", rec.kinds())
	}
	if r1.Engine().Pool().Stats(readID.String()).Accesses == before {
		t.Fatal("recovered replica served no reads")
	}
}

func TestFailedProbeDoublesCooldown(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, rec := healthSched(t, 0.5, r1, r2)
	r1.SetDown(true)
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	// Still down at probe time: the probe fails and the breaker reopens
	// with a doubled cooldown.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(100+float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	if s.BreakerTrips(r1) != 2 {
		t.Fatalf("trips = %d, want 2 (failed probe retrips)", s.BreakerTrips(r1))
	}
	h := s.health[r1]
	if h.cooldown != 20 {
		t.Fatalf("cooldown = %v, want doubled to 20", h.cooldown)
	}
	// The reopened breaker holds until the longer cooldown elapses.
	if _, err := s.Submit(110, readID); err != nil {
		t.Fatal(err)
	}
	if s.Health(r1) != HealthFailed {
		t.Fatalf("breaker probed before doubled cooldown: %v", s.Health(r1))
	}
	_ = rec
}

func TestWindowedTripCatchesIntermittentTimeouts(t *testing.T) {
	// Gray failures interleave successes with timeouts on the same
	// replica, so the consecutive counter keeps resetting; the windowed
	// condition must still trip.
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, _ := healthSched(t, 0.5, r1, r2)
	now := 0.0
	for i := 0; i < 10; i++ {
		s.recordTimeout(now, r1, "slow scan")
		s.recordSuccess(now+1, r1) // fast cached query resets consecutive
		now += 2
		if s.Health(r1) == HealthFailed {
			break
		}
	}
	if s.Health(r1) != HealthFailed {
		t.Fatal("windowed condition never tripped the breaker")
	}
	if h := s.health[r1]; len(h.recent) < breakerWindowCount {
		t.Fatalf("tripped with only %d windowed timeouts", len(h.recent))
	}
}

func TestWindowExpiresOldTimeouts(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, _ := healthSched(t, 0.5, r1, r2)
	// Five timeouts spread over 300 s: each falls out of the 30 s window
	// before the next lands, and successes keep resetting the
	// consecutive counter — no trip.
	for i := 0; i < 5; i++ {
		now := float64(i) * 60
		s.recordTimeout(now, r1, "sporadic blip")
		s.recordSuccess(now+1, r1)
	}
	if s.Health(r1) == HealthFailed {
		t.Fatal("sporadic timeouts tripped the breaker")
	}
}

func TestWriteTimeoutsDetectDownReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, _ := healthSched(t, 0.5, r1, r2)
	r2.SetDown(true)

	// Until the breaker opens, ROWA waits out the deadline on the
	// unresponsive replica.
	done, err := s.Submit(0, writeID)
	if err != nil {
		t.Fatal(err)
	}
	if done != 0.5 {
		t.Fatalf("write with down replica done = %v, want the 0.5 deadline", done)
	}
	for i := 1; i < 4; i++ {
		if _, err := s.Submit(float64(i), writeID); err != nil {
			t.Fatal(err)
		}
	}
	if s.Health(r2) != HealthFailed {
		t.Fatalf("write timeouts did not trip the breaker: %v", s.Health(r2))
	}
	// Open breaker: writes skip the replica and complete fast again.
	done, err = s.Submit(10, writeID)
	if err != nil {
		t.Fatal(err)
	}
	if done-10 >= 0.5 {
		t.Fatalf("write still paying the deadline after trip: %v", done-10)
	}
	// The down replica missed writes but the live set stays consistent.
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}

	// Recovery: fault clears, the probe write state-transfers the
	// replica and the whole set converges.
	r2.SetDown(false)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(30+float64(i), writeID); err != nil {
			t.Fatal(err)
		}
	}
	if s.Health(r2) != HealthHealthy {
		t.Fatalf("health after probe write = %v, want healthy", s.Health(r2))
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedSeq(r2); got != s.WriteSeq() {
		t.Fatalf("recovered replica applied %d of %d writes", got, s.WriteSeq())
	}
}

func TestWriteFailsWhenNoReplicaReachable(t *testing.T) {
	r1 := newReplica(t, "s1")
	s, _ := healthSched(t, 0.5, r1)
	r1.SetDown(true)
	if _, err := s.Submit(0, writeID); err == nil {
		t.Fatal("write with no reachable replica succeeded")
	}
	// The failed write rolled the sequence back.
	if s.WriteSeq() != 0 {
		t.Fatalf("write seq = %d after total failure, want 0", s.WriteSeq())
	}
}

func TestReadExhaustsRetriesAgainstAllDownReplicas(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, _ := healthSched(t, 0.5, r1, r2)
	r1.SetDown(true)
	r2.SetDown(true)
	if _, err := s.Submit(0, readID); err == nil {
		t.Fatal("read succeeded with every replica down")
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	s, _ := healthSched(t, 0.5, newReplica(t, "s1"))
	if b := s.retryBackoff(1); b != 0.05 {
		t.Fatalf("first backoff = %v, want 0.05", b)
	}
	if b := s.retryBackoff(2); b != 0.1 {
		t.Fatalf("second backoff = %v, want 0.1", b)
	}
	if b := s.retryBackoff(50); b != 1 {
		t.Fatalf("backoff uncapped: %v", b)
	}
}

func TestMarkFailedRecoveredEmitEvents(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	rec := &captureObs{}
	s.SetObserver(rec)
	now := 42.0
	s.SetClock(func() float64 { return now })

	s.MarkFailed(r1)
	s.MarkRecovered(r1)
	if rec.count(obs.EventReplicaFailed) != 1 || rec.count(obs.EventReplicaRecovered) != 1 {
		t.Fatalf("lifecycle events = %v", rec.kinds())
	}
	if rec.events[0].Time != 42 || rec.events[0].Server != "s1" {
		t.Fatalf("event not stamped with clock/server: %+v", rec.events[0])
	}
}

func TestMarkRecoveredClearsDetectorState(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s, _ := healthSched(t, 0.5, r1, r2)
	r1.SetDown(true)
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	r1.SetDown(false)
	s.MarkRecovered(r1)
	if s.Health(r1) != HealthHealthy || s.BreakerTrips(r1) != 0 {
		t.Fatal("administrative recovery left detector state behind")
	}
}

func TestAtomicWriteAbortsCleanlyOnPartialFailure(t *testing.T) {
	// Regression: a write that fails on the second replica must not
	// leave the first replica's applied sequence ahead of the set.
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	r2.Engine().Deregister(writeID)
	if _, err := s.Submit(0, writeID); err == nil {
		t.Fatal("partial write reported success")
	}
	if s.WriteSeq() != 0 {
		t.Fatalf("write seq = %d after aborted write, want 0", s.WriteSeq())
	}
	if got := s.AppliedSeq(r1); got != 0 {
		t.Fatalf("first replica applied %d writes from an aborted write", got)
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicAsyncWriteAbortsCleanly(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(0.2)
	// The first async write's primary is r2; r1's apply fails.
	r1.Engine().Deregister(writeID)
	if _, err := s.Submit(0, writeID); err == nil {
		t.Fatal("partial async write reported success")
	}
	if s.WriteSeq() != 0 {
		t.Fatalf("write seq = %d after aborted write, want 0", s.WriteSeq())
	}
	if got := s.AppliedSeq(r2); got != 0 {
		t.Fatalf("primary applied %d writes from an aborted write", got)
	}
	for _, st := range s.states {
		if st.freshAt != 0 {
			t.Fatal("aborted async write moved a freshness horizon")
		}
	}
}

func TestReadFallsThroughToNextCandidateOnError(t *testing.T) {
	// Regression: one replica refusing a read (its engine lost the
	// class) must not fail the query while another candidate can serve.
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	r1.Engine().Deregister(readID)
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatalf("read %d failed instead of falling through: %v", i, err)
		}
	}
	if n := r2.Engine().Pool().Stats(readID.String()).Accesses; n == 0 {
		t.Fatal("fall-through candidate served nothing")
	}
	// With no candidate left the read still errors.
	r2.Engine().Deregister(readID)
	if _, err := s.Submit(10, readID); err == nil {
		t.Fatal("read succeeded with no serving replica")
	}
}

func TestHealthDisabledKeepsAnnouncedModel(t *testing.T) {
	// With the zero config, down is invisible and routing matches the
	// pre-detector scheduler exactly.
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	if s.HealthConfig().Enabled() {
		t.Fatal("health enabled by default")
	}
	for i := 0; i < 10; i++ {
		id := readID
		if i%3 == 0 {
			id = writeID
		}
		if _, err := s.Submit(float64(i), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}
