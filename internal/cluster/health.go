package cluster

import (
	"fmt"

	"outlierlb/internal/obs"
)

// HealthState is one replica's position in the scheduler's failure
// detector: healthy → suspected (first timeout) → failed (circuit
// breaker open) → probation (half-open probe) → healthy. The detector is
// driven entirely by per-query deadlines and latency observations — the
// scheduler is never told about a crash, it infers one — which is what
// lets it survive gray failures (slow disks), flapping replicas and
// other partial faults that an announced-crash model cannot see.
type HealthState int

// The health states.
const (
	// HealthHealthy: full read/write traffic.
	HealthHealthy HealthState = iota
	// HealthSuspected: at least one recent timeout; traffic continues
	// while the breaker counts.
	HealthSuspected
	// HealthFailed: the circuit breaker is open; the replica receives no
	// traffic until the probe time.
	HealthFailed
	// HealthProbation: half-open — the replica was state-transferred and
	// serves again; the next outcome decides between healthy and failed.
	HealthProbation
)

func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthSuspected:
		return "suspected"
	case HealthFailed:
		return "failed"
	case HealthProbation:
		return "probation"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

// HealthConfig tunes the scheduler's failure detector, retry policy and
// per-replica circuit breaker. The zero value disables detection
// entirely (QueryDeadline == 0): the scheduler behaves exactly as the
// announced-failure model did.
type HealthConfig struct {
	// QueryDeadline is the per-query deadline in seconds. A read whose
	// completion would exceed start+deadline is abandoned at the deadline
	// and retried on another replica; a write skips replicas that time
	// out (they resynchronize by state transfer on recovery). Zero
	// disables all health management.
	QueryDeadline float64
}

// Failure-detector constants; times are in seconds.
const (
	// maxRetries is how many deadline-bounded attempts a read makes
	// before the final patient attempt, which waits the query out on the
	// best remaining live replica instead of abandoning at the deadline
	// (there is nowhere left to retry).
	maxRetries = 2
	// breakerThreshold trips the breaker after this many consecutive
	// timeouts on one replica.
	breakerThreshold = 3
	// breakerWindowCount trips the breaker when this many timeouts land
	// within breakerWindow seconds even if successes interleave — the
	// gray-failure path, where fast cached queries keep resetting a
	// purely consecutive counter.
	breakerWindowCount = 6
	// breakerCooldown is how long the breaker stays open before a
	// half-open probe; it doubles on each failed probe up to
	// breakerCooldownMax.
	breakerCooldown = 10.0
	// initialRetryBackoff is the client backoff before the first retry;
	// it doubles per attempt up to maxRetryBackoff.
	initialRetryBackoff = 0.05
	maxRetryBackoff     = 1.0
	// breakerWindow is the span of the windowed trip condition.
	breakerWindow = 30.0
	// breakerWindowRate additionally requires windowed timeouts to make
	// up at least this fraction of the window's outcomes before the
	// windowed condition trips. An absolute count alone would trip on the
	// latency tail of a busy but healthy replica — at hundreds of queries
	// per second, even a 0.1% tail clears any fixed count.
	breakerWindowRate = 0.25
	// breakerCooldownMax caps the doubling breaker cooldown.
	breakerCooldownMax = 60.0
)

// Enabled reports whether health management is active.
func (c HealthConfig) Enabled() bool { return c.QueryDeadline > 0 }

// replicaHealth is the per-replica detector state.
type replicaHealth struct {
	state       HealthState
	consecutive int       // consecutive timeouts since the last success
	recent      []float64 // timestamps of recent timeouts (windowed trip)
	recentOK    []float64 // timestamps of recent successes (windowed rate)
	openUntil   float64   // earliest probe time while failed
	cooldown    float64   // current open period (doubles, capped)
	trips       int       // lifetime breaker trips
}

// pruneBefore drops timestamps older than cutoff from the front of ts.
func pruneBefore(ts []float64, cutoff float64) []float64 {
	for len(ts) > 0 && ts[0] < cutoff {
		ts = ts[1:]
	}
	return ts
}

// SetHealthConfig enables (QueryDeadline > 0) or disables the failure
// detector, retry policy and circuit breaker.
func (s *Scheduler) SetHealthConfig(cfg HealthConfig) { s.hcfg = cfg }

// HealthConfig returns the active health configuration.
func (s *Scheduler) HealthConfig() HealthConfig { return s.hcfg }

// SetObserver attaches an observer to the scheduler's health and
// retry decision trace. Passing nil (or obs.Nop{}) detaches.
func (s *Scheduler) SetObserver(o obs.Observer) {
	if o == nil {
		o = obs.Nop{}
	}
	s.observer = o
	_, nop := o.(obs.Nop)
	s.observing = !nop
}

// SetClock supplies virtual time for events emitted outside Submit
// (MarkFailed/MarkRecovered have no now parameter). Nil means time 0.
func (s *Scheduler) SetClock(fn func() float64) { s.clock = fn }

func (s *Scheduler) clockNow() float64 {
	if s.clock != nil {
		return s.clock()
	}
	return 0
}

// Health reports the detector state of r (healthy when detection is off
// or the replica is unknown).
func (s *Scheduler) Health(r *Replica) HealthState {
	if h := s.health[r]; h != nil {
		return h.state
	}
	return HealthHealthy
}

// BreakerTrips reports how many times r's circuit breaker has tripped.
func (s *Scheduler) BreakerTrips(r *Replica) int {
	if h := s.health[r]; h != nil {
		return h.trips
	}
	return 0
}

func (s *Scheduler) healthFor(r *Replica) *replicaHealth {
	h := s.health[r]
	if h == nil {
		h = &replicaHealth{cooldown: breakerCooldown}
		s.health[r] = h
	}
	return h
}

// emitHealth sends one health-transition event, mirrored onto the
// current query's span (breaker and detector transitions are caused by
// specific queries — the span shows which one) and stamped with its
// trace ID so /debug/decisions entries correlate with span trees.
func (s *Scheduler) emitHealth(now float64, kind obs.EventKind, r *Replica, cause string, fields map[string]float64) {
	sp := s.tracer.Current()
	if sp != nil {
		sp.AddEvent(now, kind, cause, fields)
	}
	if !s.observing {
		return
	}
	s.observer.Event(obs.Event{
		Time: now, Kind: kind, App: s.app.Name,
		Server: r.srv.Name(), Cause: cause, Fields: fields,
		Trace: sp.TraceID(),
	})
}

// admitted reports whether the detector currently routes traffic to r,
// promoting an open breaker to probation (with state transfer) when its
// probe time has arrived.
func (s *Scheduler) admitted(now float64, st *replicaState) bool {
	if !s.hcfg.Enabled() {
		return true
	}
	r := st.r
	h := s.health[r]
	if h == nil || h.state != HealthFailed {
		return true
	}
	if now < h.openUntil {
		return false
	}
	// Half-open: recovery performs state transfer from a live replica, so
	// the probation replica is up to date and may serve reads.
	h.state = HealthProbation
	st.applied = s.writeSeq
	st.freshAt = 0
	s.emitHealth(now, obs.EventBreakerProbe, r,
		fmt.Sprintf("breaker half-open after %.1fs; probing", h.cooldown), nil)
	return true
}

// recordSuccess feeds one successful query outcome into the detector. A
// success resets the consecutive counter but not the timeout window —
// gray failures interleave successes with timeouts, and wiping the
// window on every fast query would blind the windowed trip condition.
func (s *Scheduler) recordSuccess(now float64, r *Replica) {
	h := s.health[r]
	if h == nil {
		return
	}
	h.consecutive = 0
	cutoff := now - breakerWindow
	h.recentOK = append(pruneBefore(h.recentOK, cutoff), now)
	switch h.state {
	case HealthProbation:
		h.state = HealthHealthy
		h.cooldown = breakerCooldown
		h.recent = h.recent[:0]
		h.recentOK = h.recentOK[:0]
		s.emitHealth(now, obs.EventReplicaRecovered, r,
			"probe succeeded; replica healthy again", map[string]float64{"trips": float64(h.trips)})
	case HealthSuspected:
		// Demote to healthy only once every windowed timeout has aged
		// out, so one fast query doesn't clear a suspicion the window
		// still supports.
		h.recent = pruneBefore(h.recent, cutoff)
		if len(h.recent) == 0 {
			h.state = HealthHealthy
		}
	}
}

// recordTimeout feeds one timed-out (or errored) query outcome into the
// detector, tripping the breaker when the consecutive or windowed
// threshold is reached.
func (s *Scheduler) recordTimeout(now float64, r *Replica, cause string) {
	h := s.healthFor(r)
	h.consecutive++
	cutoff := now - breakerWindow
	h.recent = append(pruneBefore(h.recent, cutoff), now)
	h.recentOK = pruneBefore(h.recentOK, cutoff)
	switch h.state {
	case HealthHealthy:
		h.state = HealthSuspected
		s.emitHealth(now, obs.EventReplicaSuspected, r, cause, nil)
	case HealthProbation:
		// A failed probe reopens the breaker with a doubled cooldown.
		h.state = HealthFailed
		h.cooldown = min(2*h.cooldown, breakerCooldownMax)
		h.openUntil = now + h.cooldown
		h.trips++
		s.emitHealth(now, obs.EventBreakerTrip, r,
			"probe failed: "+cause, map[string]float64{"cooldown": h.cooldown, "trips": float64(h.trips)})
		return
	case HealthFailed:
		return
	}
	// The windowed condition needs both a count and a rate: the count
	// keeps one slow query from tripping an idle replica, the rate keeps
	// the latency tail of a busy healthy replica (many successes, a few
	// timeouts) from tripping it.
	windowed := len(h.recent) >= breakerWindowCount &&
		float64(len(h.recent)) >= breakerWindowRate*float64(len(h.recent)+len(h.recentOK))
	if h.consecutive >= breakerThreshold || windowed {
		h.state = HealthFailed
		h.openUntil = now + h.cooldown
		h.trips++
		s.emitHealth(now, obs.EventBreakerTrip, r,
			fmt.Sprintf("%s (%d consecutive, %d of %d in %.0fs)",
				cause, h.consecutive, len(h.recent), len(h.recent)+len(h.recentOK), breakerWindow),
			map[string]float64{"cooldown": h.cooldown, "trips": float64(h.trips)})
	}
}

// resetHealth clears detector state (administrative recovery).
func (s *Scheduler) resetHealth(r *Replica) {
	delete(s.health, r)
}

// retryBackoff returns the capped exponential client backoff before
// retry number attempt (1-based).
func (s *Scheduler) retryBackoff(attempt int) float64 {
	b := initialRetryBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= maxRetryBackoff {
			return maxRetryBackoff
		}
	}
	return min(b, maxRetryBackoff)
}
