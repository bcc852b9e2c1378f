// Package obs is the observability layer: a typed decision-trace event
// log, a Prometheus-style metric registry, and an HTTP debug server. The
// paper's central claim is that fine-grained load balancing is
// *explainable* — §5.5 walks an administrator from per-class counters to
// an interference diagnosis — so every controller decision (SLA
// violation, outlier context, MRC diagnosis, quota change, migration,
// fallback) is emitted as a structured event an operator can replay.
//
// The simulation and controller code talk to the layer through the
// Observer interface. The default implementation, Nop, discards
// everything, so instrumented hot paths pay only an interface call when
// observability is disabled; Recorder is the real implementation backing
// the /metrics and /debug endpoints.
//
// Concurrency: this is the one layer deliberately built for concurrent
// use. Recorder, Registry and EventLog are all safe to read while the
// simulation goroutine writes, because the HTTP debug server serves
// them live mid-run.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"outlierlb/internal/metrics"
)

// EventKind labels one decision-trace event. The retuning-action kinds
// mirror core.ActionKind string-for-string so an Action converts to an
// Event without a mapping table.
type EventKind string

// Controller retuning actions (mirroring core.ActionKind).
const (
	EventProvision  EventKind = "provision-replica"
	EventQuota      EventKind = "enforce-quota"
	EventReschedule EventKind = "reschedule-class"
	EventIOMove     EventKind = "io-move-class"
	EventFallback   EventKind = "coarse-isolate"
	EventShrink     EventKind = "release-replica"
	EventLockReport EventKind = "lock-contention"
	EventMaintain   EventKind = "maintain-quota"
	EventExhausted  EventKind = "resources-exhausted"
)

// Diagnosis and lifecycle events beyond the action log.
const (
	// EventViolation marks a measurement interval that broke its SLA.
	EventViolation EventKind = "sla-violation"
	// EventOutlier marks a query context flagged by IQR outlier
	// detection; Fields carries the impact value per flagged metric.
	EventOutlier EventKind = "outlier-context"
	// EventMRCDiagnosis marks a class confirmed as a memory problem by
	// MRC recomputation; Fields carries the fresh curve parameters.
	EventMRCDiagnosis EventKind = "mrc-diagnosis"
	// EventSignature marks a stable interval whose metrics refreshed the
	// application's stable-state signature.
	EventSignature EventKind = "signature-recorded"
	// EventEngineUp / EventEngineDown / EventAttach are the resource
	// manager's infrastructure events.
	EventEngineUp   EventKind = "engine-provisioned"
	EventEngineDown EventKind = "engine-decommissioned"
	EventAttach     EventKind = "replica-attached"
)

// Replica health, fault-injection, and degraded-analysis events. The
// scheduler's failure detector and circuit breaker narrate every
// transition of the per-replica health state machine (healthy →
// suspected → failed → probation → healthy) so /debug/decisions explains
// every recovery, not just every retuning action.
const (
	// EventReplicaSuspected marks a replica's first query timeout since
	// it was last healthy.
	EventReplicaSuspected EventKind = "replica-suspected"
	// EventReplicaFailed marks an announced (administrative) replica
	// crash — the scheduler was told, not the detector.
	EventReplicaFailed EventKind = "replica-failed"
	// EventBreakerTrip marks the circuit breaker opening on a replica:
	// it receives no traffic until a half-open probe is due.
	EventBreakerTrip EventKind = "breaker-trip"
	// EventBreakerProbe marks a half-open probe: the replica moves to
	// probation and the next queries decide its fate.
	EventBreakerProbe EventKind = "breaker-probe"
	// EventReplicaRecovered marks a replica returning to healthy, via a
	// successful probe or an administrative recovery.
	EventReplicaRecovered EventKind = "replica-recovered"
	// EventQueryRetry marks one read retried on another replica after a
	// timeout or error.
	EventQueryRetry EventKind = "query-retry"
	// EventFaultInjected / EventFaultCleared bracket each injected fault
	// (crash, gray failure, flap phase, metric blackout).
	EventFaultInjected EventKind = "fault-injected"
	EventFaultCleared  EventKind = "fault-cleared"
	// EventDegradedAnalysis marks the controller skipping or downgrading
	// its diagnosis because a server's metrics are missing or stale.
	EventDegradedAnalysis EventKind = "degraded-analysis"
)

// Overload-protection events (mirroring core's shed/readmit action
// kinds string-for-string, like the retuning actions above).
const (
	// EventShedClass marks the brownout controller putting a query
	// class on the shed list: the cluster is saturated, no rebalancing
	// move exists, and this class ranked lowest by metric impact.
	EventShedClass EventKind = "shed-class"
	// EventReadmitClass marks a shed class re-admitted after the
	// hysteresis streak of stable intervals.
	EventReadmitClass EventKind = "readmit-class"
)

// Control-plane guardrail events. The action watchdog (internal/guard)
// narrates its lifecycle through these so a reverted retuning decision
// is as explainable as the decision itself.
const (
	// EventActionSuspect marks a controller action whose post-action
	// fitness regressed beyond the watchdog's tolerance; Fields carries
	// the pre/post fitness components and the regression score.
	EventActionSuspect EventKind = "action-suspect"
	// EventActionReverted marks a suspect action rolled back by the
	// watchdog (placement restored, quota reinstated, class readmitted).
	EventActionReverted EventKind = "action-reverted"
	// EventGuardVeto marks an action blocked before it ran: rate limit,
	// post-revert cooldown, or the oscillation detector.
	EventGuardVeto EventKind = "guard-veto"
	// EventGuardTripped marks the action-storm circuit opening: the
	// watchdog reverted repeatedly within its window, so diagnosis is
	// suspended and the controller falls back to coarse isolation.
	EventGuardTripped EventKind = "guard-tripped"
)

// Control-channel events (the message-passing control plane,
// internal/ctrlnet + core.ControlPlane): failure-detector transitions,
// lease autonomy, epoch fencing and action-delivery outcomes. Per-
// message traffic is deliberately NOT narrated here — it flows through
// the CtrlSampled counters — so a lossy run's decision trace stays
// readable.
const (
	// EventCtrlSuspect marks the controller's failure detector moving a
	// server from reachable to suspect (missed heartbeat acks).
	EventCtrlSuspect EventKind = "ctrl-suspect"
	// EventCtrlUnreachable marks a server declared unreachable:
	// diagnosis for it is suspended and its pending actions abandoned.
	EventCtrlUnreachable EventKind = "ctrl-unreachable"
	// EventCtrlReachable marks a suspect/unreachable server acking a
	// heartbeat again.
	EventCtrlReachable EventKind = "ctrl-reachable"
	// EventCtrlAutonomy marks an engine-side agent's lease expiring:
	// the engine holds its last-leased configuration (admission gates,
	// brownout state — never widened) and rejects actions until a fresh
	// heartbeat re-establishes the lease.
	EventCtrlAutonomy EventKind = "ctrl-autonomy"
	// EventCtrlLeaseRenewed marks an autonomous agent receiving a
	// heartbeat again and leaving autonomy.
	EventCtrlLeaseRenewed EventKind = "ctrl-lease-renewed"
	// EventCtrlEpoch marks the controller advancing its epoch after
	// deposing a server's view (an unreachable declaration): in-flight
	// actions from earlier epochs are fenced off at the engines.
	EventCtrlEpoch EventKind = "ctrl-epoch-advanced"
	// EventCtrlRetry marks one action RPC retransmission after an ack
	// timeout (capped exponential backoff).
	EventCtrlRetry EventKind = "ctrl-action-retry"
	// EventCtrlStaleEpoch marks an engine rejecting an action stamped
	// with a deposed epoch — the fencing working as intended.
	EventCtrlStaleEpoch EventKind = "ctrl-stale-epoch-rejected"
	// EventCtrlDupAction marks an engine suppressing a duplicate
	// delivery of an already-applied action (idempotent re-ack).
	EventCtrlDupAction EventKind = "ctrl-duplicate-suppressed"
	// EventCtrlAbandoned marks the controller giving up on an action
	// whose retries exhausted (or whose target went unreachable).
	EventCtrlAbandoned EventKind = "ctrl-action-abandoned"
)

// Event is one structured decision-trace record.
type Event struct {
	// Seq is assigned by the event log: a monotonically increasing
	// sequence number across the run.
	Seq uint64 `json:"seq"`
	// Time is the virtual time of the decision, in seconds.
	Time float64   `json:"time"`
	Kind EventKind `json:"kind"`
	// App, Server and Class locate the decision; empty when not
	// applicable.
	App    string `json:"app,omitempty"`
	Server string `json:"server,omitempty"`
	Class  string `json:"class,omitempty"`
	// Level is the outlier strength ("mild"/"extreme") for outlier
	// events.
	Level string `json:"level,omitempty"`
	// Cause is the human-readable explanation, matching the controller's
	// action detail strings.
	Cause string `json:"cause,omitempty"`
	// Fields carries numeric evidence: metric impact values for outlier
	// events, MRC parameters for diagnosis events.
	Fields map[string]float64 `json:"fields,omitempty"`
	// Trace correlates the event with a sampled query's span tree: the
	// TraceID of the query that triggered it (retries, breaker trips,
	// failure-detector transitions). Zero when the triggering query was
	// not sampled or the event is not query-scoped.
	Trace TraceID `json:"trace,omitempty"`
}

// String renders the event as one operator-readable line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.0fs %s", e.Time, e.Kind)
	if e.App != "" {
		fmt.Fprintf(&b, " app=%s", e.App)
	}
	if e.Server != "" {
		fmt.Fprintf(&b, " server=%s", e.Server)
	}
	if e.Class != "" {
		fmt.Fprintf(&b, " class=%s", e.Class)
	}
	if e.Level != "" {
		fmt.Fprintf(&b, " level=%s", e.Level)
	}
	if len(e.Fields) > 0 {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.3g", k, e.Fields[k])
		}
	}
	if e.Cause != "" {
		fmt.Fprintf(&b, " — %s", e.Cause)
	}
	return b.String()
}

// IntervalObs is one application's closed measurement interval, as seen
// by an observer.
type IntervalObs struct {
	Time       float64 `json:"time"`
	App        string  `json:"app"`
	AvgLatency float64 `json:"avg_latency"`
	P95Latency float64 `json:"p95_latency"`
	P99Latency float64 `json:"p99_latency"`
	Throughput float64 `json:"throughput"`
	Queries    int64   `json:"queries"`
	Met        bool    `json:"met"`
	Replicas   int     `json:"replicas"`
}

// EngineObs is one database engine's buffer-pool state at a tick.
type EngineObs struct {
	Engine    string  `json:"engine"`
	HitRatio  float64 `json:"hit_ratio"`
	Resident  int     `json:"resident_pages"`
	Capacity  int     `json:"capacity_pages"`
	QuotaKeys int     `json:"quotas"`
}

// ServerObs is one physical server's utilization sample at a tick.
type ServerObs struct {
	Time    float64     `json:"time"`
	Server  string      `json:"server"`
	CPU     float64     `json:"cpu_utilization"`
	Disk    float64     `json:"disk_utilization"`
	Engines []EngineObs `json:"engines,omitempty"`
}

// ClassLatencyObs is one query class's latency distribution over the
// interval that just closed on one server.
type ClassLatencyObs struct {
	Server string
	App    string
	Class  string
	Count  int64
	Mean   float64
	P50    float64
	P95    float64
	P99    float64
	Max    float64
	// Hist, when non-nil, is a private copy of the interval's latency
	// histogram the receiver may retain and merge.
	Hist *metrics.Histogram
}

// AdmissionQueueObs is one replica queue's depth in an admission
// sample.
type AdmissionQueueObs struct {
	Server string `json:"server"`
	Depth  int    `json:"depth"`
}

// AdmissionClassObs is one query class's cumulative admission ledger.
type AdmissionClassObs struct {
	Class            string `json:"class"`
	Admitted         int64  `json:"admitted"`
	Shed             int64  `json:"shed,omitempty"`
	Throttled        int64  `json:"throttled,omitempty"`
	QueueRejected    int64  `json:"queue_rejected,omitempty"`
	DeadlineRejected int64  `json:"deadline_rejected,omitempty"`
}

// AdmissionObs is one application's overload-protection sample at a
// controller tick: token-bucket level, currently shed classes (in shed
// order), per-replica queue depths, and the per-class ledger.
type AdmissionObs struct {
	Time float64 `json:"time"`
	App  string  `json:"app"`
	// Tokens is the token-bucket level; -1 when the token gate is
	// disabled.
	Tokens      float64             `json:"tokens"`
	ShedClasses []string            `json:"shed_classes,omitempty"`
	Queues      []AdmissionQueueObs `json:"queues,omitempty"`
	Classes     []AdmissionClassObs `json:"classes,omitempty"`
}

// CtrlServerObs is one server's control-channel health as the
// controller's failure detector sees it at a tick.
type CtrlServerObs struct {
	Server string `json:"server"`
	// State is the failure-detector verdict: "reachable", "suspect" or
	// "unreachable".
	State string `json:"state"`
	// MissedAcks counts consecutive unacknowledged heartbeats.
	MissedAcks int `json:"missed_acks,omitempty"`
	// Autonomous reports that the server's agent is known (from its last
	// report) to be running on its local lease, rejecting actions.
	Autonomous bool `json:"autonomous,omitempty"`
}

// CtrlObs is the control plane's per-tick sample: cumulative transport
// and protocol counters plus the failure detector's view of each server.
// Counters are lifetime totals (the recorder Sets them, matching the
// Prometheus counter convention for replayed samples).
type CtrlObs struct {
	Time float64 `json:"time"`
	// Epoch is the controller's current fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Transport counters (internal/ctrlnet lifetime stats).
	Sent       uint64 `json:"sent"`
	Delivered  uint64 `json:"delivered"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Duplicated uint64 `json:"duplicated,omitempty"`
	// Protocol counters.
	ActionRetries   uint64 `json:"action_retries,omitempty"`
	EpochRejections uint64 `json:"epoch_rejections,omitempty"`
	DupSuppressed   uint64 `json:"dup_suppressed,omitempty"`
	// Servers is the failure detector's per-server state.
	Servers []CtrlServerObs `json:"servers,omitempty"`
}

// Observer receives the decision trace and periodic samples. All methods
// are called from the (single-threaded) simulation loop; implementations
// that expose data to other goroutines must synchronize internally.
type Observer interface {
	// Event delivers one decision-trace event.
	Event(e Event)
	// IntervalClosed delivers an application's measurement-interval
	// outcome.
	IntervalClosed(iv IntervalObs)
	// ServerSampled delivers a server utilization sample.
	ServerSampled(s ServerObs)
	// ClassLatency delivers one class's per-interval latency summary.
	ClassLatency(cl ClassLatencyObs)
	// AdmissionSampled delivers an application's overload-protection
	// sample.
	AdmissionSampled(a AdmissionObs)
	// CtrlSampled delivers the control plane's transport/failure-detector
	// sample. Only emitted when the message-passing control plane is
	// active.
	CtrlSampled(c CtrlObs)
}

// Nop is the no-op Observer: every method returns immediately. It is the
// default everywhere an observer can be attached, keeping the simulation
// hot path free of observability cost when tracing is off.
type Nop struct{}

// Event implements Observer.
func (Nop) Event(Event) {}

// IntervalClosed implements Observer.
func (Nop) IntervalClosed(IntervalObs) {}

// ServerSampled implements Observer.
func (Nop) ServerSampled(ServerObs) {}

// ClassLatency implements Observer.
func (Nop) ClassLatency(ClassLatencyObs) {}

// AdmissionSampled implements Observer.
func (Nop) AdmissionSampled(AdmissionObs) {}

// CtrlSampled implements Observer.
func (Nop) CtrlSampled(CtrlObs) {}

var _ Observer = Nop{}

// tee forwards every call to a fixed set of observers, in order.
type tee struct{ outs []Observer }

func (t tee) Event(e Event) {
	for _, o := range t.outs {
		o.Event(e)
	}
}
func (t tee) IntervalClosed(iv IntervalObs) {
	for _, o := range t.outs {
		o.IntervalClosed(iv)
	}
}
func (t tee) ServerSampled(s ServerObs) {
	for _, o := range t.outs {
		o.ServerSampled(s)
	}
}
func (t tee) ClassLatency(cl ClassLatencyObs) {
	for _, o := range t.outs {
		o.ClassLatency(cl)
	}
}
func (t tee) AdmissionSampled(a AdmissionObs) {
	for _, o := range t.outs {
		o.AdmissionSampled(a)
	}
}
func (t tee) CtrlSampled(c CtrlObs) {
	for _, o := range t.outs {
		o.CtrlSampled(c)
	}
}

// Tee returns an Observer that forwards every call to each non-nil
// observer in order — e.g. a scenario's private recorder plus a tool's
// live metrics endpoint. Zero usable observers degrade to Nop.
func Tee(observers ...Observer) Observer {
	var outs []Observer
	for _, o := range observers {
		if o != nil {
			if _, nop := o.(Nop); nop {
				continue
			}
			outs = append(outs, o)
		}
	}
	switch len(outs) {
	case 0:
		return Nop{}
	case 1:
		return outs[0]
	}
	return tee{outs: outs}
}
