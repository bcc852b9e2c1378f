// Package admission is the overload-protection layer threaded through
// the query path: a per-application token bucket governing how fast
// work may enter the scheduler, bounded per-replica in-flight queues
// with deadline-aware early rejection (a query that cannot meet its
// deadline is shed at enqueue, before it wastes a slot), and a brownout
// shed list the controller populates with the lowest-impact query
// classes when the cluster is saturated and no rebalancing move exists.
//
// The paper's controller rebalances; it cannot create capacity. When
// every server is saturated the only remaining lever is to stop
// admitting some of the offered load, and the impact ranking the
// outlier analyzer already computes (internal/core.Detect) tells the
// controller which classes cost the least to turn away.
//
// Concurrency: unlike the scheduler it protects, a Controller is safe
// for concurrent use — every method takes an internal lock. The
// simulation drives it single-threaded, but the bounded queues are the
// one admission structure whose invariants (never more than cap slots
// outstanding, no slot lost or double-freed) must also hold for real
// concurrent submitters, and the race tests exercise exactly that.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
)

// Reason labels why a query was turned away.
type Reason string

// The rejection reasons.
const (
	// ReasonShed: the query's class is on the brownout shed list.
	ReasonShed Reason = "class-shed"
	// ReasonThrottled: the application's token bucket is empty.
	ReasonThrottled Reason = "throttled"
	// ReasonQueueFull: every candidate replica's in-flight queue is at
	// capacity.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDeadline: every candidate replica's backlog predicts the
	// query would finish past its deadline, so it is shed at enqueue.
	ReasonDeadline Reason = "deadline"
)

// RejectionError is the typed error surfaced to clients for every
// admission decision, so callers can tell load shedding apart from real
// scheduler failures.
type RejectionError struct {
	ID     metrics.ClassID
	Reason Reason
	Detail string
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("admission: %v rejected (%s): %s", e.ID, e.Reason, e.Detail)
}

// IsRejection reports whether err is an admission rejection and, if so,
// returns it.
func IsRejection(err error) (*RejectionError, bool) {
	var rej *RejectionError
	if errors.As(err, &rej) {
		return rej, true
	}
	return nil, false
}

// Config tunes a Controller.
type Config struct {
	// Rate is the token refill rate in queries per second of virtual
	// time; Burst is the bucket capacity. Rate <= 0 disables the token
	// gate entirely (queue bounds and the shed list still apply).
	Rate  float64
	Burst float64
	// QueueCap bounds each replica's in-flight queries. Default 256.
	QueueCap int
	// Deadline is the per-query completion bound in seconds used for
	// early rejection at enqueue. Zero disables the deadline check.
	Deadline float64
	// Protected marks classes exempt from the token gate and off-limits
	// to the brownout shed list — the traffic the system degrades
	// everything else to keep serving. NewController reads it once.
	Protected map[metrics.ClassID]bool
	// ReadmitAfter is the brownout hysteresis: how many consecutive
	// stable intervals must pass before one shed class is re-admitted.
	// Default 3.
	ReadmitAfter int
}

func (c *Config) fill() {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 3
	}
	if c.Burst <= 0 && c.Rate > 0 {
		c.Burst = c.Rate
	}
}

// Counts is the per-class admission ledger. Admitted counts queries that
// passed the entry gate; a query can be admitted and still rejected
// later when every replica queue refuses it, so Admitted is an upper
// bound on executed queries, not an exact count.
type Counts struct {
	Admitted         int64
	Shed             int64
	Throttled        int64
	QueueRejected    int64
	DeadlineRejected int64
}

// Rejected sums the rejection counters.
func (c Counts) Rejected() int64 {
	return c.Shed + c.Throttled + c.QueueRejected + c.DeadlineRejected
}

// Controller is one application's overload-protection state: token
// bucket, per-replica bounded queues, brownout shed list, and the
// per-class ledger behind the admission gauges.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	tokens     float64
	lastRefill float64

	queues map[string]*Queue // keyed by server name

	brownout brownout
	// classes holds every class's ledger and flags.
	classes map[metrics.ClassID]*Class

	// tracer, when non-nil, annotates the current query's span with the
	// gate verdict and slot decisions. Wired once before traffic starts;
	// atomic (not mu) so TryEnqueue's hot path reads it without a third
	// lock acquisition, and nil-safe so the default path pays one branch.
	tracer atomic.Pointer[obs.Tracer]
}

// NewController returns a controller with cfg's defaults filled in.
func NewController(cfg Config) *Controller {
	cfg.fill()
	a := &Controller{
		cfg:     cfg,
		tokens:  cfg.Burst,
		queues:  make(map[string]*Queue),
		classes: make(map[metrics.ClassID]*Class),
	}
	for id, on := range cfg.Protected {
		if on {
			a.class(id).protected = true
		}
	}
	return a
}

// Config returns the controller's (filled) configuration.
func (a *Controller) Config() Config { return a.cfg }

// SetTracer attaches the span tracer whose current query span receives
// gate-verdict and slot events. Nil (the default) disables them.
func (a *Controller) SetTracer(t *obs.Tracer) {
	a.tracer.Store(t)
}

// Class is one query class's admission state: its ledger, whether it is
// protected, and whether it is on the brownout shed list. Its fields
// belong to the Controller that issued it and are guarded by that
// controller's lock.
type Class struct {
	id        metrics.ClassID
	counts    Counts
	protected bool
	shed      bool
}

// Class returns id's admission state, creating it on first use. A caller
// that admits the same class over and over, like the scheduler, resolves
// it once and passes it to AdmitClass. The result is only meaningful to
// this controller.
func (a *Controller) Class(id metrics.ClassID) *Class {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.class(id)
}

// class is Class for callers holding the lock.
func (a *Controller) class(id metrics.ClassID) *Class {
	c := a.classes[id]
	if c == nil {
		c = &Class{id: id}
		a.classes[id] = c
	}
	return c
}

// Admit is the entry gate, called once per query before any replica is
// chosen. It rejects queries of shed classes, then charges the token
// bucket (protected classes are exempt — that is their protection).
// A nil error means the query may proceed to replica selection.
func (a *Controller) Admit(now float64, id metrics.ClassID) error {
	return a.AdmitClass(now, a.Class(id))
}

// AdmitClass is Admit for a class already resolved through Class.
func (a *Controller) AdmitClass(now float64, c *Class) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.tracer.Load().Current()
	id := c.id
	if c.shed {
		c.counts.Shed++
		sp.AddEvent(now, obs.EventAdmissionRejected, string(ReasonShed), nil)
		return &RejectionError{ID: id, Reason: ReasonShed,
			Detail: "class on brownout shed list"}
	}
	if a.cfg.Rate > 0 && !c.protected {
		a.refill(now)
		if a.tokens < 1 {
			c.counts.Throttled++
			sp.AddEvent(now, obs.EventAdmissionRejected, string(ReasonThrottled), nil)
			return &RejectionError{ID: id, Reason: ReasonThrottled,
				Detail: fmt.Sprintf("token bucket empty (rate %.3g/s)", a.cfg.Rate)}
		}
		a.tokens--
	}
	c.counts.Admitted++
	if sp != nil {
		tokens := a.tokens
		if a.cfg.Rate <= 0 {
			tokens = -1
		}
		sp.AddEvent(now, obs.EventAdmitted, "", map[string]float64{"tokens": tokens})
	}
	return nil
}

// refill advances the token bucket to now. Caller holds the lock.
func (a *Controller) refill(now float64) {
	if now > a.lastRefill {
		a.tokens += (now - a.lastRefill) * a.cfg.Rate
		if a.tokens > a.cfg.Burst {
			a.tokens = a.cfg.Burst
		}
	}
	a.lastRefill = now
}

// QueueFor returns (creating if needed) the bounded in-flight queue of
// the replica on the named server.
func (a *Controller) QueueFor(server string) *Queue {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.queues[server]
	if q == nil {
		q = NewQueue(a.cfg.QueueCap)
		a.queues[server] = q
	}
	return q
}

// TryEnqueue reserves an in-flight slot on server for a query arriving
// at now whose completion is estimated est seconds away. It returns the
// empty Reason on success (the caller must Commit or Cancel the slot on
// *q), ReasonQueueFull when the queue is at capacity, or ReasonDeadline
// when the estimate says the query would finish past the configured
// deadline — the early rejection that sheds doomed work at enqueue
// instead of after it wasted a slot.
//
// *q caches server's queue for the caller. When it is nil, TryEnqueue
// resolves it through QueueFor once the deadline check has passed, so a
// server whose queries are all shed early gets no queue, exactly as
// without the cache. A caller keeps *q per server and per controller;
// later calls then skip QueueFor's lock and lookup.
func (a *Controller) TryEnqueue(q **Queue, server string, now, est float64) Reason {
	sp := a.tracer.Load().Current()
	if a.cfg.Deadline > 0 && est > a.cfg.Deadline {
		if sp != nil {
			sp.AddEvent(now, obs.EventSlotReject, string(ReasonDeadline),
				map[string]float64{"est": est, "deadline": a.cfg.Deadline})
		}
		return ReasonDeadline
	}
	if *q == nil {
		*q = a.QueueFor(server)
	}
	if !(*q).TryAcquire(now) {
		sp.AddEvent(now, obs.EventSlotReject, string(ReasonQueueFull), nil)
		return ReasonQueueFull
	}
	if sp != nil {
		sp.AddEvent(now, obs.EventSlotAcquire, server, map[string]float64{"est": est})
	}
	return ""
}

// Reject records the final disposition of a query that passed Admit but
// was refused by every candidate replica, and returns the typed error
// the scheduler surfaces.
func (a *Controller) Reject(id metrics.ClassID, r Reason, detail string) error {
	a.mu.Lock()
	c := a.class(id)
	switch r {
	case ReasonDeadline:
		c.counts.DeadlineRejected++
	default:
		c.counts.QueueRejected++
	}
	a.mu.Unlock()
	return &RejectionError{ID: id, Reason: r, Detail: detail}
}

// CountsFor returns a copy of the ledger for id.
func (a *Controller) CountsFor(id metrics.ClassID) Counts {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.classes[id]; c != nil {
		return c.counts
	}
	return Counts{}
}

// TotalRejected sums rejections across all classes.
func (a *Controller) TotalRejected() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, c := range a.classes {
		n += c.counts.Rejected()
	}
	return n
}

// ShedClass puts a class on the brownout shed list. Protected and
// already-shed classes are refused. The returned ordinal is the class's
// position in the shed order (1-based).
func (a *Controller) ShedClass(id metrics.ClassID) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.class(id)
	if c.protected {
		return 0, false
	}
	return a.brownout.shed(c)
}

// ReadmitTick advances the brownout hysteresis by one stable interval:
// once ReadmitAfter consecutive stable intervals accumulate, one shed
// class is re-admitted and the streak restarts so classes return one at
// a time. choose receives the current shed list (oldest first) and
// names the class to re-admit — the brownout decision point a
// readmission policy can pervert; the controller's default picks LIFO
// (the cheapest classes, shed first, return last). An out-of-list
// choice falls back to LIFO. It returns the re-admitted class, if any.
func (a *Controller) ReadmitTick(choose func([]metrics.ClassID) metrics.ClassID) (metrics.ClassID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.brownout.readmitTick(a.cfg.ReadmitAfter, choose)
}

// Readmit removes id from the shed list immediately, wherever it sits
// in the shed order, reporting whether it was shed. This is the action
// watchdog's rollback of a harmful shed — it bypasses the stable-streak
// hysteresis on purpose.
func (a *Controller) Readmit(id metrics.ClassID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[id]
	return c != nil && a.brownout.readmit(c)
}

// ViolationTick resets the brownout hysteresis streak: re-admission
// requires ReadmitAfter *consecutive* stable intervals.
func (a *Controller) ViolationTick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.brownout.violationTick()
}

// ShedClasses lists the currently shed classes in shed order.
func (a *Controller) ShedClasses() []metrics.ClassID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.brownout.shedClasses()
}

// IsShed reports whether id is currently shed.
func (a *Controller) IsShed(id metrics.ClassID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[id]
	return c != nil && c.shed
}

// Snapshot renders the controller's state as one observability sample.
func (a *Controller) Snapshot(now float64, app string) obs.AdmissionObs {
	a.mu.Lock()
	a.refill(now)
	s := obs.AdmissionObs{Time: now, App: app, Tokens: a.tokens}
	if a.cfg.Rate <= 0 {
		s.Tokens = -1 // token gate disabled
	}
	for _, id := range a.brownout.shedClasses() {
		s.ShedClasses = append(s.ShedClasses, id.Class)
	}
	servers := make([]string, 0, len(a.queues))
	for name := range a.queues {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	for _, name := range servers {
		s.Queues = append(s.Queues, obs.AdmissionQueueObs{
			Server: name, Depth: a.queues[name].Depth(now),
		})
	}
	// The ledger lists the classes that have seen a query: every Admit
	// and Reject counts one, so a class only shed or protected so far
	// still has all-zero counts.
	counted := make([]*Class, 0, len(a.classes))
	for _, c := range a.classes {
		if c.counts != (Counts{}) {
			counted = append(counted, c)
		}
	}
	sort.Slice(counted, func(i, j int) bool { return counted[i].id.String() < counted[j].id.String() })
	for _, cs := range counted {
		c := cs.counts
		s.Classes = append(s.Classes, obs.AdmissionClassObs{
			Class: cs.id.Class, Admitted: c.Admitted, Shed: c.Shed,
			Throttled: c.Throttled, QueueRejected: c.QueueRejected,
			DeadlineRejected: c.DeadlineRejected,
		})
	}
	a.mu.Unlock()
	return s
}
