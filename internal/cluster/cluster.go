// Package cluster implements the replicated database tier of the paper
// (§3.1): a set of physical servers hosting database engines, one query
// scheduler per application distributing queries over the application's
// replicas with read-one-write-all replication, and a resource manager
// making global replica-allocation decisions across applications.
//
// Scheduling and placement happen at the granularity of query class
// contexts: each query class is placed on a subset of its application's
// replicas and load-balanced across that subset — the mechanism the
// paper's fine-grained load balancing relies on.
//
// Concurrency: schedulers, replicas, the manager and the engines it
// provisions all run on the simulation goroutine (internal/sim) and are
// single-owner.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"outlierlb/internal/admission"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
	"outlierlb/internal/sla"
)

// Replica is one copy of an application's data served by a database
// engine on some physical server. Several applications may share one
// replica's engine (multiple apps inside a single DBMS), and a server may
// host several engines (one per VM or per database system).
type Replica struct {
	eng *engine.Engine
	srv *server.Server

	// failed marks a crashed replica: it receives no reads and applies
	// no writes until recovery. This is the announced (administrative)
	// crash — the scheduler is told.
	failed bool

	// down marks a fault-injected crash the scheduler has NOT been told
	// about: the replica is still routed to, but its queries go
	// unanswered until the failure detector notices (contrast failed).
	// Meaningful only when the scheduler's health management is enabled.
	down bool
}

// NewReplica wraps an engine hosted on srv as a replica.
func NewReplica(eng *engine.Engine, srv *server.Server) *Replica {
	return &Replica{eng: eng, srv: srv}
}

// Engine returns the replica's database engine.
func (r *Replica) Engine() *engine.Engine { return r.eng }

// Server returns the physical server hosting the replica.
func (r *Replica) Server() *server.Server { return r.srv }

// Failed reports whether the replica is currently crashed.
func (r *Replica) Failed() bool { return r.failed }

// SetDown injects (true) or clears (false) an unannounced crash: the
// fault-injection hook behind the detector-driven failure model. Unlike
// MarkFailed, nothing in the scheduler learns of it directly — queries
// routed here simply time out until the circuit breaker opens.
func (r *Replica) SetDown(on bool) { r.down = on }

// Down reports whether an unannounced crash is active.
func (r *Replica) Down() bool { return r.down }

// Application describes one hosted database application.
type Application struct {
	// Name identifies the application (e.g. "tpcw").
	Name string
	// SLA is the application's latency agreement.
	SLA sla.SLA
	// Classes is the application's full query-class catalog. The
	// scheduler determines templates on the fly in the real system; here
	// the workload declares them.
	Classes []engine.ClassSpec
}

// Scheduler distributes one application's queries over its replica set
// using read-one-write-all replication, load-balancing each read-only
// query class across the subset of replicas the class is placed on.
type Scheduler struct {
	app      *Application
	tracker  *sla.Tracker
	replicas []*Replica
	// states holds the scheduler's routing state of each attached
	// replica, in replicas order.
	states []*replicaState
	// classes is the per-class table in app.Classes order; index resolves
	// a ClassID to its position once per Submit, and everything after
	// that works on the table entry.
	classes  []classState
	index    map[metrics.ClassID]int
	writeSeq int64

	// asyncLag > 0 switches the scheduler to asynchronous replication
	// (the paper's underlying substrate is a scheduler-based asynchronous
	// replication scheme with strong consistency): a write completes when
	// the first replica finishes, while the remaining replicas apply it
	// asyncLag seconds later. Each replica's freshAt is the virtual time
	// by which it will have applied every write issued so far; reads
	// preserve one-copy semantics by waiting for freshness when no
	// up-to-date replica is available.
	asyncLag float64

	// Failure detection, retry and circuit breaking (health.go). The
	// default hcfg (QueryDeadline == 0) disables all of it, preserving
	// the announced-failure model exactly.
	hcfg      HealthConfig
	health    map[*Replica]*replicaHealth
	observer  obs.Observer
	observing bool
	clock     func() float64

	// admission, when non-nil, is the application's overload-protection
	// layer: every Submit passes its entry gate (shed list + token
	// bucket) and every read holds a slot in the target replica's
	// bounded in-flight queue for the duration of its execution.
	admission *admission.Controller

	// tracer, when non-nil, samples queries into span trees: Submit
	// opens the root span, each replica try becomes an attempt span,
	// retry backoffs become retry-wait spans, and the engine nests
	// service phases under the active attempt. Nil-safe throughout.
	tracer *obs.Tracer
}

// classState is one query class's entry in the scheduler's table.
type classState struct {
	spec engine.ClassSpec
	// placement lists the replicas serving the class's reads.
	placement []*replicaState
	// rr is the round-robin cursor over placement.
	rr int
	// adm is the class's state in the attached admission controller.
	adm *admission.Class
}

// replicaState is the scheduler's view of one attached replica. It
// belongs to the scheduler, not to the Replica, because Manager.Attach
// lets one replica serve several applications, each with its own write
// sequence and admission controller.
type replicaState struct {
	r *Replica
	// applied is the last write sequence of this application applied on
	// the replica — the consistency bookkeeping behind
	// read-one-write-all.
	applied int64
	// freshAt is the virtual time by which the replica will have applied
	// every asynchronous write issued so far (zero when none is pending).
	freshAt float64
	// queue is the replica's bounded in-flight queue in the attached
	// admission controller, resolved on the first slot reservation and
	// cleared when the controller changes.
	queue *admission.Queue
}

// NewScheduler returns a scheduler for app with no replicas yet.
func NewScheduler(app *Application) (*Scheduler, error) {
	if app == nil || app.Name == "" {
		return nil, fmt.Errorf("cluster: scheduler needs a named application")
	}
	index := make(map[metrics.ClassID]int, len(app.Classes))
	classes := make([]classState, len(app.Classes))
	for i, spec := range app.Classes {
		if spec.ID.App != app.Name {
			return nil, fmt.Errorf("cluster: class %v does not belong to application %q", spec.ID, app.Name)
		}
		if _, dup := index[spec.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate class %v", spec.ID)
		}
		index[spec.ID] = i
		classes[i].spec = spec
	}
	return &Scheduler{
		app:      app,
		tracker:  sla.NewTracker(app.SLA),
		classes:  classes,
		index:    index,
		health:   make(map[*Replica]*replicaHealth),
		observer: obs.Nop{},
	}, nil
}

// SetAsyncReplication switches write propagation to asynchronous with
// the given apply lag in seconds; zero restores synchronous
// read-one-write-all. Reads remain strongly consistent in both modes.
func (s *Scheduler) SetAsyncReplication(lag float64) {
	if lag < 0 {
		lag = 0
	}
	s.asyncLag = lag
}

// SetAdmission attaches (or, with nil, detaches) the application's
// overload-protection controller. With none attached the scheduler
// admits everything, exactly as before the layer existed.
func (s *Scheduler) SetAdmission(a *admission.Controller) {
	s.admission = a
	for i := range s.classes {
		c := &s.classes[i]
		c.adm = nil
		if a != nil {
			c.adm = a.Class(c.spec.ID)
		}
	}
	for _, st := range s.states {
		st.queue = nil
	}
	// Attachment order is free (the tools set the tracer at registration,
	// the scenarios attach admission later), so propagate in both
	// directions: here and in SetTracer.
	if a != nil && s.tracer != nil {
		a.SetTracer(s.tracer)
	}
}

// Admission returns the attached overload-protection controller, or nil.
func (s *Scheduler) Admission() *admission.Controller { return s.admission }

// SetTracer attaches the per-query span tracer and propagates it to the
// attached admission controller. Nil (the default) disables tracing.
func (s *Scheduler) SetTracer(t *obs.Tracer) {
	s.tracer = t
	if s.admission != nil {
		s.admission.SetTracer(t)
	}
}

// App returns the scheduled application.
func (s *Scheduler) App() *Application { return s.app }

// Tracker returns the application-level SLA tracker.
func (s *Scheduler) Tracker() *sla.Tracker { return s.tracker }

// Replicas returns the application's current replica set.
func (s *Scheduler) Replicas() []*Replica { return s.replicas }

// WriteSeq returns the global write sequence number issued so far.
func (s *Scheduler) WriteSeq() int64 { return s.writeSeq }

// AppliedSeq reports the last write sequence of the scheduler's
// application applied on r (zero when r is not attached).
func (s *Scheduler) AppliedSeq(r *Replica) int64 {
	if st := s.stateOf(r); st != nil {
		return st.applied
	}
	return 0
}

// class returns the table entry for id.
func (s *Scheduler) class(id metrics.ClassID) (*classState, bool) {
	i, ok := s.index[id]
	if !ok {
		return nil, false
	}
	return &s.classes[i], true
}

// stateOf returns the scheduler's state for r, or nil when r is not
// attached.
func (s *Scheduler) stateOf(r *Replica) *replicaState {
	for _, st := range s.states {
		if st.r == r {
			return st
		}
	}
	return nil
}

// AddReplica attaches r to the application, registering every query class
// on it and adding it to every class's placement (the default: all
// classes load-balanced over all replicas). New replicas are brought up
// to date by construction in this synchronous model.
func (s *Scheduler) AddReplica(r *Replica) error {
	for _, existing := range s.replicas {
		if existing == r {
			return fmt.Errorf("cluster: replica already attached")
		}
	}
	for _, spec := range s.app.Classes {
		if err := r.eng.Register(spec); err != nil {
			return fmt.Errorf("cluster: registering %v on new replica: %w", spec.ID, err)
		}
	}
	st := &replicaState{r: r, applied: s.writeSeq}
	s.replicas = append(s.replicas, r)
	s.states = append(s.states, st)
	for i := range s.classes {
		s.classes[i].placement = append(s.classes[i].placement, st)
	}
	return nil
}

// RemoveReplica detaches r, dropping it from every placement. Classes
// whose placement would become empty are moved to the remaining replicas;
// removing the last replica is an error.
func (s *Scheduler) RemoveReplica(r *Replica) error {
	idx := -1
	for i, existing := range s.replicas {
		if existing == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: replica not attached")
	}
	if len(s.replicas) == 1 {
		return fmt.Errorf("cluster: cannot remove the last replica of %q", s.app.Name)
	}
	gone := s.states[idx]
	s.replicas = append(s.replicas[:idx], s.replicas[idx+1:]...)
	s.states = append(s.states[:idx], s.states[idx+1:]...)
	for i := range s.classes {
		c := &s.classes[i]
		out := c.placement[:0]
		for _, st := range c.placement {
			if st != gone {
				out = append(out, st)
			}
		}
		if len(out) == 0 {
			out = append(out, s.states...)
			for _, rep := range s.replicas {
				if err := rep.eng.Register(c.spec); err != nil {
					return err
				}
			}
		}
		c.placement = out
	}
	for _, spec := range s.app.Classes {
		r.eng.Deregister(spec.ID)
	}
	return nil
}

// PlaceClass restricts query class id to the given replicas (which must
// be attached), registering the class there and deregistering it from
// replicas no longer serving it. This is the fine-grained load-balancing
// primitive: the §3.3.2 retuning action "schedule a suspect query class
// on a different replica" is PlaceClass with a different subset.
func (s *Scheduler) PlaceClass(id metrics.ClassID, reps ...*Replica) error {
	c, ok := s.class(id)
	if !ok {
		return fmt.Errorf("cluster: unknown class %v", id)
	}
	if len(reps) == 0 {
		return fmt.Errorf("cluster: class %v needs at least one replica", id)
	}
	placement := make([]*replicaState, len(reps))
	for i, r := range reps {
		if placement[i] = s.stateOf(r); placement[i] == nil {
			return fmt.Errorf("cluster: replica not attached to %q", s.app.Name)
		}
	}
	serving := make(map[*Replica]bool, len(reps))
	for _, r := range reps {
		serving[r] = true
		if err := r.eng.Register(c.spec); err != nil {
			return err
		}
	}
	for _, old := range c.placement {
		if !serving[old.r] && !c.spec.Write {
			// Write classes stay registered everywhere (ROWA); read-only
			// classes are removed from replicas that no longer serve them.
			old.r.eng.Deregister(id)
		}
	}
	c.placement = placement
	c.rr = 0
	return nil
}

// UpdateClass replaces a query class's definition at runtime — the
// mechanism behind environment changes such as §5.3's index drop, where
// the same query template suddenly executes with a different plan (and
// therefore a different access pattern and cost). The new spec is
// re-registered on every replica currently serving the class.
func (s *Scheduler) UpdateClass(spec engine.ClassSpec) error {
	if spec.ID.App != s.app.Name {
		return fmt.Errorf("cluster: class %v does not belong to %q", spec.ID, s.app.Name)
	}
	idx, ok := s.index[spec.ID]
	if !ok {
		return fmt.Errorf("cluster: unknown class %v", spec.ID)
	}
	s.app.Classes[idx] = spec
	c := &s.classes[idx]
	c.spec = spec
	targets := c.placement
	if spec.Write {
		targets = s.states
	}
	for _, st := range targets {
		if err := st.r.eng.Register(spec); err != nil {
			return err
		}
	}
	return nil
}

// Placement returns the replicas currently serving class id.
func (s *Scheduler) Placement(id metrics.ClassID) []*Replica {
	c, ok := s.class(id)
	if !ok || c.placement == nil {
		return nil
	}
	out := make([]*Replica, len(c.placement))
	for i, st := range c.placement {
		out[i] = st.r
	}
	return out
}

// Submit executes one query of class id arriving at virtual time now and
// returns its completion time. Read-only queries go to one replica of the
// class's placement (round-robin), falling through to the next candidate
// if a replica refuses or — with health management enabled — times out;
// writes go to every replica of the application (read-one-write-all) and
// complete when the slowest finishes, or at the per-query deadline when a
// replica is unresponsive. The query's latency feeds the
// application-level SLA tracker.
func (s *Scheduler) Submit(now float64, id metrics.ClassID) (done float64, err error) {
	c, ok := s.class(id)
	if !ok {
		return now, fmt.Errorf("cluster: unknown class %v", id)
	}
	if len(s.replicas) == 0 {
		return now, fmt.Errorf("cluster: application %q has no replicas", s.app.Name)
	}
	// Head-sampling decision for this query. The guarded defer keeps the
	// unsampled path at one nil-returning call plus a branch — no defer,
	// no allocation — which is what the tracing_disabled benchsuite
	// micro holds to a few nanoseconds.
	if sp := s.tracer.StartQuery(now, s.app.Name, id.Class); sp != nil {
		defer func() {
			s.tracer.SetCurrent(nil)
			if err != nil {
				sp.Fail(err.Error())
			}
			sp.Finish(done)
		}()
	}
	// Entry gate: shed classes and token exhaustion reject here, before
	// any replica is touched. A rejected query never reaches the SLA
	// tracker — shed load must not count against the latency agreement
	// it exists to protect.
	if s.admission != nil {
		if err := s.admission.AdmitClass(now, c.adm); err != nil {
			return now, err
		}
	}
	if c.spec.Write {
		s.writeSeq++
		if s.asyncLag > 0 {
			done, err = s.submitWriteAsync(now, id)
		} else {
			done, err = s.submitWriteSync(now, id)
		}
		if err != nil {
			// The write happened nowhere — roll the sequence back so the
			// replica set has no gap to account for.
			s.writeSeq--
			return now, err
		}
	} else {
		if len(c.placement) == 0 {
			return now, fmt.Errorf("cluster: class %v has no placement", id)
		}
		done, err = s.submitRead(now, id, c)
		if err != nil {
			return now, err
		}
	}
	s.tracker.Observe(done - now)
	return done, nil
}

// submitRead routes one read. Without health management a replica whose
// engine refuses the query is skipped and the next consistent candidate
// tried; the read fails only when every candidate is exhausted. With
// health management each attempt also carries a deadline, failures feed
// the failure detector, and retries back off exponentially.
//
// With admission control attached, each candidate must also grant a
// slot in its bounded in-flight queue before executing: a replica at
// capacity — or whose backlog predicts the query would blow its
// deadline — is skipped like a refusing one, and only when every
// candidate rejects does the read surface a typed RejectionError.
// Writes deliberately bypass the per-replica queues: read-one-write-all
// must reach every replica or none, so writes are governed by the entry
// gate alone.
func (s *Scheduler) submitRead(now float64, id metrics.ClassID, c *classState) (float64, error) {
	if s.hcfg.Enabled() {
		return s.submitReadHealth(now, id, c)
	}
	root := s.tracer.Current()
	if root != nil {
		defer s.tracer.SetCurrent(root)
	}
	var excluded []*replicaState
	var lastErr error
	var rejections int
	var rejReason admission.Reason
	for {
		st, start := s.pickFreshReplica(now, c, excluded)
		if st == nil {
			if rejections > 0 {
				return now, s.admission.Reject(id, rejReason,
					fmt.Sprintf("%d candidate replica(s) refused admission", rejections))
			}
			if lastErr != nil {
				return now, lastErr
			}
			return now, fmt.Errorf("cluster: no consistent replica for read of %v", id)
		}
		r := st.r
		var asp *obs.Span
		if root != nil {
			asp = root.Child(now, obs.SpanAttempt, r.srv.Name())
			asp.Server = r.srv.Name()
			if start > now {
				asp.Annotate("freshness_wait", start-now)
			}
			s.tracer.SetCurrent(asp)
		}
		var q *admission.Queue
		if s.admission != nil {
			// Completion estimate from arrival: freshness wait, the
			// server's instantaneous CPU + disk backlog, and the class's
			// recent latency on this engine.
			est := (start - now) + r.srv.CPUQueueDelay(start) +
				r.srv.Disk().QueueDelay(start) + r.eng.LatencyEstimate(id)
			if reason := s.admission.TryEnqueue(&st.queue, r.srv.Name(), start, est); reason != "" {
				rejections++
				// Deadline rejection is the more specific diagnosis; it
				// wins when candidates reject for mixed reasons.
				if rejReason == "" || reason == admission.ReasonDeadline {
					rejReason = reason
				}
				if asp != nil {
					asp.Fail(string(reason))
					asp.Finish(start)
				}
				excluded = append(excluded, st)
				continue
			}
			q = st.queue
		}
		done, execErr := r.eng.Execute(start, id)
		if execErr == nil {
			if q != nil {
				q.Commit(done)
				asp.AddEvent(done, obs.EventSlotCommit, r.srv.Name(), nil)
			}
			asp.Finish(done)
			return done, nil
		}
		if q != nil {
			q.Cancel()
			asp.AddEvent(start, obs.EventSlotCancel, r.srv.Name(), nil)
		}
		if asp != nil {
			asp.Fail(execErr.Error())
			asp.Finish(start)
		}
		// One replica's refusal is not the cluster's: fall through.
		lastErr = execErr
		excluded = append(excluded, st)
	}
}

// submitReadHealth is the detector-driven read path: each attempt has a
// deadline, a timed-out or refused attempt is retried on another replica
// after a capped exponential backoff, and every outcome feeds the
// per-replica circuit breaker. Admission's entry gate still applies
// (Submit runs it first), but the per-replica bounded queues do not:
// this path already abandons slow replicas at its own per-query
// deadline, and layering a second early-rejection mechanism under the
// retry loop would double-count the same backlog. A timed-out attempt still consumes work
// on the slow replica — the client abandoned the query, the replica
// didn't. Once every alternative is exhausted the read makes one final
// patient attempt: abandoning at the deadline only buys the client
// anything while another replica is left to try, so with nowhere to go
// it waits the query out instead of surfacing a latency blip as an
// error.
func (s *Scheduler) submitReadHealth(now float64, id metrics.ClassID, c *classState) (float64, error) {
	root := s.tracer.Current()
	if root != nil {
		defer s.tracer.SetCurrent(root)
	}
	var excluded []*replicaState
	arrive := now
	var lastErr error
	for attempt := 1; attempt <= maxRetries; attempt++ {
		st, start := s.pickFreshReplica(arrive, c, excluded)
		if st == nil {
			break
		}
		r := st.r
		var asp *obs.Span
		if root != nil {
			asp = root.Child(arrive, obs.SpanAttempt, r.srv.Name())
			asp.Server = r.srv.Name()
			asp.Annotate("attempt", float64(attempt))
			s.tracer.SetCurrent(asp)
		}
		deadline := arrive + s.hcfg.QueryDeadline
		failAt := deadline
		if r.down {
			// Unanswered: the client waits out the full deadline.
			s.recordTimeout(deadline, r, "read unanswered: replica unresponsive")
			if asp != nil {
				asp.Fail("replica unresponsive")
				asp.Finish(deadline)
			}
		} else {
			d, execErr := r.eng.Execute(start, id)
			switch {
			case execErr == nil && d <= deadline:
				s.recordSuccess(d, r)
				asp.Finish(d)
				return d, nil
			case execErr == nil:
				s.recordTimeout(deadline, r, "read exceeded deadline")
				if asp != nil {
					asp.Fail("exceeded deadline")
					asp.Finish(deadline)
				}
			default:
				lastErr = execErr
				failAt = start
				s.recordTimeout(start, r, "read refused: "+execErr.Error())
				if asp != nil {
					asp.Fail(execErr.Error())
					asp.Finish(start)
				}
			}
		}
		excluded = append(excluded, st)
		backoff := s.retryBackoff(attempt)
		if s.observing {
			s.observer.Event(obs.Event{
				Time: failAt, Kind: obs.EventQueryRetry, App: s.app.Name,
				Server: r.srv.Name(), Class: id.Class,
				Cause:  fmt.Sprintf("attempt %d failed; retrying elsewhere after %.2gs backoff", attempt, backoff),
				Fields: map[string]float64{"attempt": float64(attempt), "backoff": backoff},
				Trace:  root.TraceID(),
			})
		}
		if root != nil && backoff > 0 {
			root.Child(failAt, obs.SpanRetryWait,
				fmt.Sprintf("backoff after attempt %d", attempt)).Finish(failAt + backoff)
		}
		arrive = failAt + backoff
	}
	// Patient final attempt: exclusions are reset (a slow answer from an
	// already-tried replica beats no answer), unresponsive replicas are
	// waited out and crossed off one by one, and a live replica's late
	// completion is delivered to the client — it still counts as a
	// timeout for the detector. Only a cluster with no live consistent
	// replica surfaces an error.
	var patientExcluded []*replicaState
	for {
		st, start := s.pickFreshReplica(arrive, c, patientExcluded)
		if st == nil {
			break
		}
		r := st.r
		var asp *obs.Span
		if root != nil {
			asp = root.Child(arrive, obs.SpanAttempt, r.srv.Name()+" (patient)")
			asp.Server = r.srv.Name()
			s.tracer.SetCurrent(asp)
		}
		deadline := arrive + s.hcfg.QueryDeadline
		if r.down {
			s.recordTimeout(deadline, r, "read unanswered: replica unresponsive")
			if asp != nil {
				asp.Fail("replica unresponsive")
				asp.Finish(deadline)
			}
			patientExcluded = append(patientExcluded, st)
			arrive = deadline
			continue
		}
		d, execErr := r.eng.Execute(start, id)
		if execErr != nil {
			lastErr = execErr
			s.recordTimeout(start, r, "read refused: "+execErr.Error())
			if asp != nil {
				asp.Fail(execErr.Error())
				asp.Finish(start)
			}
			patientExcluded = append(patientExcluded, st)
			arrive = start
			continue
		}
		if d <= deadline {
			s.recordSuccess(d, r)
		} else {
			// Late but delivered: the attempt succeeded for the client
			// even though the detector counts it as a timeout.
			s.recordTimeout(deadline, r, "read exceeded deadline")
		}
		asp.Finish(d)
		return d, nil
	}
	if lastErr != nil {
		return now, lastErr
	}
	return now, fmt.Errorf("cluster: read of %v failed on every candidate replica", id)
}

// MarkFailed crashes a replica: reads avoid it and writes skip it until
// recovery. Failing every replica of a live application makes it
// unavailable, which Submit reports as an error. This is the announced
// (administrative) crash; fault-injected crashes use Replica.SetDown and
// are discovered by the failure detector instead.
func (s *Scheduler) MarkFailed(r *Replica) {
	r.failed = true
	if s.observing {
		s.observer.Event(obs.Event{
			Time: s.clockNow(), Kind: obs.EventReplicaFailed,
			App: s.app.Name, Server: r.srv.Name(),
			Cause: "announced replica crash",
		})
	}
}

// MarkRecovered brings a crashed replica back. Recovery performs state
// transfer from a live replica, so the returned replica is up to date
// (its missed writes are not replayed query by query; the engine's
// caches, however, start from whatever survived the crash). Any failure-
// detector state for the replica is cleared.
func (s *Scheduler) MarkRecovered(r *Replica) {
	r.failed = false
	if st := s.stateOf(r); st != nil {
		st.applied = s.writeSeq
		st.freshAt = 0
	}
	s.resetHealth(r)
	if s.observing {
		s.observer.Event(obs.Event{
			Time: s.clockNow(), Kind: obs.EventReplicaRecovered,
			App: s.app.Name, Server: r.srv.Name(),
			Cause: "administrative recovery with state transfer",
		})
	}
}

// live filters out failed replicas.
func live(reps []*replicaState) []*replicaState {
	out := make([]*replicaState, 0, len(reps))
	for _, st := range reps {
		if !st.r.failed {
			out = append(out, st)
		}
	}
	return out
}

// submitWriteSync executes the write on every live replica and completes
// when the slowest finishes — classic read-one-write-all (failed
// replicas resynchronize via state transfer at recovery). The write is
// atomic with respect to appliedSeq: no replica's sequence advances
// until every replica has executed, so a partial failure aborts cleanly
// instead of diverging the replica set.
func (s *Scheduler) submitWriteSync(now float64, id metrics.ClassID) (done float64, err error) {
	reps := live(s.states)
	if len(reps) == 0 {
		return now, fmt.Errorf("cluster: application %q has no live replicas", s.app.Name)
	}
	if s.hcfg.Enabled() {
		return s.submitWriteSyncHealth(now, id, reps)
	}
	root := s.tracer.Current()
	if root != nil {
		defer s.tracer.SetCurrent(root)
	}
	done = now
	for _, st := range reps {
		r := st.r
		var asp *obs.Span
		if root != nil {
			asp = root.Child(now, obs.SpanAttempt, r.srv.Name())
			asp.Server = r.srv.Name()
			s.tracer.SetCurrent(asp)
		}
		d, execErr := r.eng.Execute(now, id)
		if execErr != nil {
			if asp != nil {
				asp.Fail(execErr.Error())
				asp.Finish(now)
			}
			return now, execErr
		}
		asp.Finish(d)
		if d > done {
			done = d
		}
	}
	for _, st := range reps {
		st.applied = s.writeSeq
	}
	return done, nil
}

// submitWriteSyncHealth is submitWriteSync under the failure detector:
// breaker-open replicas are skipped entirely (they resynchronize by
// state transfer when probed), an unresponsive replica costs the client
// the full deadline and feeds the detector, and a replica that executes
// past the deadline still applies the write — the client just stops
// waiting for it. A definite engine error still aborts atomically; the
// write only errors out when it reached no replica at all.
func (s *Scheduler) submitWriteSyncHealth(now float64, id metrics.ClassID, reps []*replicaState) (float64, error) {
	deadline := now + s.hcfg.QueryDeadline
	done := now
	targets := make([]*replicaState, 0, len(reps))
	for _, st := range reps {
		if s.admitted(now, st) {
			targets = append(targets, st)
		}
	}
	if len(targets) == 0 {
		// Every breaker is open: fail open and write everywhere. With no
		// admitted replica left, refusing the write would turn a detector
		// artifact into a client error — and a replica that does answer
		// stays current, so fail-open reads stay consistent.
		targets = reps
	}
	root := s.tracer.Current()
	if root != nil {
		defer s.tracer.SetCurrent(root)
	}
	applied := make([]*replicaState, 0, len(targets))
	for _, st := range targets {
		r := st.r
		var asp *obs.Span
		if root != nil {
			asp = root.Child(now, obs.SpanAttempt, r.srv.Name())
			asp.Server = r.srv.Name()
			s.tracer.SetCurrent(asp)
		}
		if r.down {
			// Unacknowledged: ROWA waits for this replica until the
			// deadline, then gives up on it.
			done = deadline
			s.recordTimeout(deadline, r, "write unacknowledged: replica unresponsive")
			if asp != nil {
				asp.Fail("replica unresponsive")
				asp.Finish(deadline)
			}
			continue
		}
		d, execErr := r.eng.Execute(now, id)
		if execErr != nil {
			if asp != nil {
				asp.Fail(execErr.Error())
				asp.Finish(now)
			}
			return now, execErr
		}
		applied = append(applied, st)
		if d > deadline {
			s.recordTimeout(deadline, r, "write exceeded deadline")
			asp.Fail("exceeded deadline")
			asp.Finish(deadline)
			d = deadline
		} else {
			s.recordSuccess(d, r)
			asp.Finish(d)
		}
		if d > done {
			done = d
		}
	}
	if len(applied) == 0 {
		return now, fmt.Errorf("cluster: write of %v reached no replica", id)
	}
	for _, st := range applied {
		st.applied = s.writeSeq
	}
	return done, nil
}

// submitWriteAsync executes the write on one replica and completes when
// it does; the remaining replicas apply the write asyncLag seconds later
// and their freshness horizon moves accordingly. Like the synchronous
// path, no appliedSeq or freshness horizon advances until every replica
// has executed, so a partial failure aborts without divergence.
func (s *Scheduler) submitWriteAsync(now float64, id metrics.ClassID) (done float64, err error) {
	reps := live(s.states)
	if len(reps) == 0 {
		return now, fmt.Errorf("cluster: application %q has no live replicas", s.app.Name)
	}
	root := s.tracer.Current()
	if root != nil {
		defer s.tracer.SetCurrent(root)
	}
	pi := int(s.writeSeq) % len(reps)
	primary := reps[pi].r
	var asp *obs.Span
	if root != nil {
		asp = root.Child(now, obs.SpanAttempt, primary.srv.Name())
		asp.Server = primary.srv.Name()
		s.tracer.SetCurrent(asp)
	}
	done, err = primary.eng.Execute(now, id)
	if err != nil {
		if asp != nil {
			asp.Fail(err.Error())
			asp.Finish(now)
		}
		return now, err
	}
	asp.Finish(done)
	appliedAt := make([]float64, len(reps))
	appliedAt[pi] = done
	for i, st := range reps {
		if i == pi {
			continue
		}
		r := st.r
		applyAt := now + s.asyncLag
		// Lagged apply: these attempt spans may extend past the root's
		// end — the client completed at the primary; consumers clip to
		// the root window.
		var lsp *obs.Span
		if root != nil {
			lsp = root.Child(applyAt, obs.SpanAttempt, r.srv.Name()+" (async apply)")
			lsp.Server = r.srv.Name()
			s.tracer.SetCurrent(lsp)
		}
		d, execErr := r.eng.Execute(applyAt, id)
		if execErr != nil {
			if lsp != nil {
				lsp.Fail(execErr.Error())
				lsp.Finish(applyAt)
			}
			return now, execErr
		}
		lsp.Finish(d)
		appliedAt[i] = d
	}
	for i, st := range reps {
		st.applied = s.writeSeq
		if d := appliedAt[i]; d > st.freshAt {
			st.freshAt = d
		}
	}
	return done, nil
}

// pickFreshReplica returns a replica that is consistent for a read
// arriving at now, plus the time the read may start there. Fresh
// replicas serve immediately (round-robin among them); if every replica
// in the placement is still applying writes, the read waits on the one
// that becomes fresh soonest — strong consistency is never given up.
// Replicas in excluded (already tried this query) and replicas whose
// circuit breaker is open are not candidates; a breaker whose probe time
// has arrived is promoted to probation here and serves normally. When
// every consistent candidate's breaker is open the picker fails open and
// routes anyway — with nowhere healthy left to send the query, refusing
// it would turn a detector artifact into a client error.
func (s *Scheduler) pickFreshReplica(now float64, c *classState, excluded []*replicaState) (*replicaState, float64) {
	if st, start := s.pickReplica(now, c, excluded, false); st != nil {
		return st, start
	}
	if !s.hcfg.Enabled() {
		return nil, 0
	}
	return s.pickReplica(now, c, excluded, true)
}

func (s *Scheduler) pickReplica(now float64, c *classState, excluded []*replicaState, failOpen bool) (*replicaState, float64) {
	reps := c.placement
	n := len(reps)
	var soonest *replicaState
	soonestAt := 0.0
	for i := 0; i < n; i++ {
		st := reps[(c.rr+i)%n]
		if st.r.failed || slices.Contains(excluded, st) {
			continue
		}
		if !failOpen && !s.admitted(now, st) {
			continue
		}
		behind := st.applied != s.writeSeq
		fresh := st.freshAt
		if !behind && fresh <= now {
			c.rr += i + 1
			return st, now
		}
		if behind {
			continue
		}
		if soonest == nil || fresh < soonestAt {
			soonest = st
			soonestAt = fresh
		}
	}
	if soonest == nil {
		return nil, 0
	}
	c.rr++
	return soonest, soonestAt
}

// ConsistencyCheck verifies the read-one-write-all invariant: every live
// replica has applied exactly the scheduler's write sequence. Replicas
// that are administratively failed, currently down, or held by the
// failure detector in the suspected/failed states are exempt — they are
// brought up to date by state transfer at recovery or probe time, and
// reads already avoid them via the applied-sequence check.
func (s *Scheduler) ConsistencyCheck() error {
	for _, st := range live(s.states) {
		r := st.r
		if r.down {
			continue
		}
		if h := s.health[r]; h != nil && (h.state == HealthFailed || h.state == HealthSuspected) {
			continue
		}
		if st.applied != s.writeSeq {
			return fmt.Errorf("cluster: replica on %q applied %d writes, scheduler issued %d",
				r.srv.Name(), st.applied, s.writeSeq)
		}
	}
	return nil
}

// PlacementSummary renders the placement as "class → server,server" lines
// sorted by class, for reports.
func (s *Scheduler) PlacementSummary() []string {
	placed := make([]*classState, 0, len(s.classes))
	for i := range s.classes {
		if len(s.classes[i].placement) > 0 {
			placed = append(placed, &s.classes[i])
		}
	}
	sort.Slice(placed, func(i, j int) bool { return placed[i].spec.ID.Class < placed[j].spec.ID.Class })
	out := make([]string, 0, len(placed))
	for _, c := range placed {
		line := c.spec.ID.Class + " →"
		for _, st := range c.placement {
			line += " " + st.r.srv.Name()
		}
		out = append(out, line)
	}
	return out
}
