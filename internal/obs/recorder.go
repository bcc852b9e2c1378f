package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Metric names exposed by the Recorder. Kept as constants so tests, docs
// and scrape configs reference one spelling.
const (
	MetricEvents        = "outlierlb_events_total"
	MetricOutliers      = "outlierlb_outliers_total"
	MetricViolations    = "outlierlb_sla_violations_total"
	MetricIntervals     = "outlierlb_intervals_total"
	MetricAppLatencyAvg = "outlierlb_app_latency_avg_seconds"
	MetricAppLatencyQ   = "outlierlb_app_latency_quantile_seconds"
	MetricAppThroughput = "outlierlb_app_throughput_qps"
	MetricAppReplicas   = "outlierlb_app_replicas"
	MetricServerCPU     = "outlierlb_server_cpu_utilization"
	MetricServerDisk    = "outlierlb_server_disk_utilization"
	MetricPoolHitRatio  = "outlierlb_pool_hit_ratio"
	MetricPoolResident  = "outlierlb_pool_resident_pages"
	MetricPoolQuotas    = "outlierlb_pool_quotas"
	MetricClassLatency  = "outlierlb_class_latency_seconds"
	MetricClassLatencyQ = "outlierlb_class_latency_quantile_seconds"
	MetricVirtualTime   = "outlierlb_virtual_time_seconds"

	// Overload-protection metrics (admission control + brownout).
	MetricAdmitted   = "outlierlb_admission_admitted_total"
	MetricRejected   = "outlierlb_admission_rejected_total"
	MetricQueueDepth = "outlierlb_admission_queue_depth"
	MetricTokens     = "outlierlb_admission_tokens"
	MetricShedNow    = "outlierlb_admission_shed_classes"

	// Control-plane guardrail metrics (action watchdog).
	MetricGuardSuspects = "outlierlb_guard_suspects_total"
	MetricGuardReverts  = "outlierlb_guard_reverts_total"
	MetricGuardVetoes   = "outlierlb_guard_vetoes_total"
	MetricGuardTrips    = "outlierlb_guard_trips_total"

	// Control-channel metrics (message-passing control plane).
	MetricCtrlMessages     = "outlierlb_ctrl_messages_total"
	MetricCtrlRetries      = "outlierlb_ctrl_action_retries_total"
	MetricCtrlEpochRejects = "outlierlb_ctrl_epoch_rejections_total"
	MetricCtrlDupActions   = "outlierlb_ctrl_dup_actions_suppressed_total"
	MetricCtrlFDState      = "outlierlb_ctrl_failure_detector_state"
	MetricCtrlEpoch        = "outlierlb_ctrl_epoch"
	MetricCtrlAutonomous   = "outlierlb_ctrl_autonomous_engines"
)

// Recorder is the standard Observer: it appends every decision-trace
// event to a ring-buffered EventLog and maintains the metric registry the
// /metrics endpoint serves. Safe for concurrent use (the HTTP server
// reads while the simulation writes).
type Recorder struct {
	log *EventLog
	reg *Registry

	mu      sync.Mutex
	verbose io.Writer
}

// NewRecorder returns a recorder whose event log holds the most recent
// capacity events (minimum 1).
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{log: NewEventLog(capacity), reg: NewRegistry()}
	r.reg.Help(MetricEvents, "Decision-trace events emitted, by kind.")
	r.reg.Help(MetricOutliers, "Outlier query contexts flagged, by strength level.")
	r.reg.Help(MetricViolations, "Measurement intervals that violated their application's SLA.")
	r.reg.Help(MetricIntervals, "Measurement intervals closed, by SLA outcome.")
	r.reg.Help(MetricAppLatencyAvg, "Average query latency of the last closed interval, per application.")
	r.reg.Help(MetricAppLatencyQ, "Query latency quantiles of the last closed interval, per application.")
	r.reg.Help(MetricAppThroughput, "Throughput of the last closed interval, per application.")
	r.reg.Help(MetricAppReplicas, "Replicas currently allocated, per application.")
	r.reg.Help(MetricServerCPU, "Mean core utilization over the last interval, per server.")
	r.reg.Help(MetricServerDisk, "Disk utilization over the last interval, per server.")
	r.reg.Help(MetricPoolHitRatio, "Buffer-pool hit ratio, per engine.")
	r.reg.Help(MetricPoolResident, "Resident buffer-pool pages, per engine.")
	r.reg.Help(MetricPoolQuotas, "Enforced buffer-pool quotas, per engine.")
	r.reg.Help(MetricClassLatency, "Per-query-class latency distribution across all intervals.")
	r.reg.Help(MetricClassLatencyQ, "Per-query-class latency quantiles of the last closed interval.")
	r.reg.Help(MetricVirtualTime, "Current virtual time of the simulation.")
	r.reg.Help(MetricAdmitted, "Queries past the admission gate since startup, per class.")
	r.reg.Help(MetricRejected, "Queries rejected by admission control since startup, per class and reason.")
	r.reg.Help(MetricQueueDepth, "Bounded in-flight queue depth, per application and server.")
	r.reg.Help(MetricTokens, "Admission token-bucket level, per application (-1 when the token gate is off).")
	r.reg.Help(MetricShedNow, "Query classes currently on the brownout shed list, per application.")
	r.reg.Help(MetricGuardSuspects, "Controller actions whose post-action fitness regressed beyond tolerance, per application.")
	r.reg.Help(MetricGuardReverts, "Controller actions rolled back by the action watchdog, per application.")
	r.reg.Help(MetricGuardVetoes, "Controller actions blocked by guardrails before running, by reason.")
	r.reg.Help(MetricGuardTrips, "Action-storm circuit openings (diagnosis suspended), per application.")
	r.reg.Help(MetricCtrlMessages, "Control-channel messages since startup, by transport outcome.")
	r.reg.Help(MetricCtrlRetries, "Control-action RPC retransmissions after ack timeout.")
	r.reg.Help(MetricCtrlEpochRejects, "Actions rejected engine-side for carrying a deposed control epoch.")
	r.reg.Help(MetricCtrlDupActions, "Duplicate action deliveries suppressed engine-side (idempotent re-ack).")
	r.reg.Help(MetricCtrlFDState, "Controller failure-detector verdict per server (0 reachable, 1 suspect, 2 unreachable).")
	r.reg.Help(MetricCtrlEpoch, "Current control-plane fencing epoch.")
	r.reg.Help(MetricCtrlAutonomous, "Engines currently running on their local lease (rejecting actions).")
	return r
}

// Events exposes the ring-buffered decision trace.
func (r *Recorder) Events() *EventLog { return r.log }

// Registry exposes the metric registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// SetVerbose mirrors every decision event (everything except the
// per-interval signature refreshes) as one human-readable line to w.
// Pass nil to disable.
func (r *Recorder) SetVerbose(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verbose = w
}

// Event implements Observer.
func (r *Recorder) Event(e Event) {
	e = r.log.Append(e)
	r.reg.Add(MetricEvents, L("kind", string(e.Kind)), 1)
	if e.Kind == EventOutlier {
		r.reg.Add(MetricOutliers, L("level", e.Level), 1)
	}
	switch e.Kind {
	case EventActionSuspect:
		r.reg.Add(MetricGuardSuspects, L("app", e.App), 1)
	case EventActionReverted:
		r.reg.Add(MetricGuardReverts, L("app", e.App), 1)
	case EventGuardVeto:
		r.reg.Add(MetricGuardVetoes, L("reason", e.Level), 1)
	case EventGuardTripped:
		r.reg.Add(MetricGuardTrips, L("app", e.App), 1)
	}
	if e.Kind == EventSignature {
		return // stable-state bookkeeping, too chatty for the mirror
	}
	r.mu.Lock()
	w := r.verbose
	r.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, e.String())
	}
}

// IntervalClosed implements Observer.
func (r *Recorder) IntervalClosed(iv IntervalObs) {
	app := L("app", iv.App)
	r.reg.Add(MetricIntervals, L("app", iv.App, "met", strconv.FormatBool(iv.Met)), 1)
	if !iv.Met {
		r.reg.Add(MetricViolations, app, 1)
	}
	r.reg.Set(MetricAppReplicas, app, float64(iv.Replicas))
	r.reg.Set(MetricVirtualTime, nil, iv.Time)
	if iv.Queries == 0 {
		return
	}
	r.reg.Set(MetricAppLatencyAvg, app, iv.AvgLatency)
	r.reg.Set(MetricAppLatencyQ, L("app", iv.App, "quantile", "0.95"), iv.P95Latency)
	r.reg.Set(MetricAppLatencyQ, L("app", iv.App, "quantile", "0.99"), iv.P99Latency)
	r.reg.Set(MetricAppThroughput, app, iv.Throughput)
}

// ServerSampled implements Observer.
func (r *Recorder) ServerSampled(s ServerObs) {
	srv := L("server", s.Server)
	r.reg.Set(MetricServerCPU, srv, s.CPU)
	r.reg.Set(MetricServerDisk, srv, s.Disk)
	for _, e := range s.Engines {
		eng := L("server", s.Server, "engine", e.Engine)
		r.reg.Set(MetricPoolHitRatio, eng, e.HitRatio)
		r.reg.Set(MetricPoolResident, eng, float64(e.Resident))
		r.reg.Set(MetricPoolQuotas, eng, float64(e.QuotaKeys))
	}
}

// ClassLatency implements Observer.
func (r *Recorder) ClassLatency(cl ClassLatencyObs) {
	if cl.Count == 0 {
		return
	}
	// Cumulative per-query distribution across the run (le-bucketed
	// histogram with sum and count)…
	r.reg.ObserveHistogram(MetricClassLatency, L("app", cl.App, "class", cl.Class), cl.Hist)
	// …and the last interval's quantiles from the class histogram.
	r.reg.Set(MetricClassLatencyQ, L("app", cl.App, "class", cl.Class, "quantile", "0.5"), cl.P50)
	r.reg.Set(MetricClassLatencyQ, L("app", cl.App, "class", cl.Class, "quantile", "0.95"), cl.P95)
	r.reg.Set(MetricClassLatencyQ, L("app", cl.App, "class", cl.Class, "quantile", "0.99"), cl.P99)
}

// AdmissionSampled implements Observer.
func (r *Recorder) AdmissionSampled(a AdmissionObs) {
	app := L("app", a.App)
	r.reg.Set(MetricTokens, app, a.Tokens)
	r.reg.Set(MetricShedNow, app, float64(len(a.ShedClasses)))
	for _, q := range a.Queues {
		r.reg.Set(MetricQueueDepth, L("app", a.App, "server", q.Server), float64(q.Depth))
	}
	for _, c := range a.Classes {
		r.reg.Set(MetricAdmitted, L("app", a.App, "class", c.Class), float64(c.Admitted))
		set := func(reason string, v int64) {
			if v > 0 {
				r.reg.Set(MetricRejected, L("app", a.App, "class", c.Class, "reason", reason), float64(v))
			}
		}
		set(string(ReasonShedLabel), c.Shed)
		set(string(ReasonThrottledLabel), c.Throttled)
		set(string(ReasonQueueFullLabel), c.QueueRejected)
		set(string(ReasonDeadlineLabel), c.DeadlineRejected)
	}
}

// CtrlSampled implements Observer. Transport and protocol counters are
// lifetime totals, so the registry Sets them (same replayed-counter
// convention as AdmissionSampled).
func (r *Recorder) CtrlSampled(c CtrlObs) {
	r.reg.Set(MetricCtrlMessages, L("result", "sent"), float64(c.Sent))
	r.reg.Set(MetricCtrlMessages, L("result", "delivered"), float64(c.Delivered))
	if c.Dropped > 0 {
		r.reg.Set(MetricCtrlMessages, L("result", "dropped"), float64(c.Dropped))
	}
	if c.Duplicated > 0 {
		r.reg.Set(MetricCtrlMessages, L("result", "duplicated"), float64(c.Duplicated))
	}
	r.reg.Set(MetricCtrlRetries, nil, float64(c.ActionRetries))
	r.reg.Set(MetricCtrlEpochRejects, nil, float64(c.EpochRejections))
	r.reg.Set(MetricCtrlDupActions, nil, float64(c.DupSuppressed))
	r.reg.Set(MetricCtrlEpoch, nil, float64(c.Epoch))
	autonomous := 0
	for _, s := range c.Servers {
		var v float64
		switch s.State {
		case "suspect":
			v = 1
		case "unreachable":
			v = 2
		}
		r.reg.Set(MetricCtrlFDState, L("server", s.Server), v)
		if s.Autonomous {
			autonomous++
		}
	}
	r.reg.Set(MetricCtrlAutonomous, nil, float64(autonomous))
}

// Rejection-reason label values, shared with internal/admission's
// Reason constants (obs cannot import admission — the dependency runs
// the other way).
const (
	ReasonShedLabel      = "class-shed"
	ReasonThrottledLabel = "throttled"
	ReasonQueueFullLabel = "queue-full"
	ReasonDeadlineLabel  = "deadline"
)

var _ Observer = (*Recorder)(nil)
