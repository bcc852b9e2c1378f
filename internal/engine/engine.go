// Package engine simulates a database engine (the paper's instrumented
// MySQL/InnoDB): query classes execute against a buffer pool, missing
// pages are read from the host's disk, CPU work runs on the host's cores,
// and every event is logged per query class through a private logging
// buffer into a metrics collector, together with a window of recent page
// accesses for MRC recomputation.
//
// # Concurrency and ownership
//
// An Engine is single-owner: it belongs to the simulation goroutine and
// is not safe for concurrent use. Every event is logged inline through
// one private metrics.LogBuffer into one metrics.Collector, and access
// windows are updated during Execute, so results are deterministic and
// bit-identical run to run. Snapshot flushes the logging buffer first, so
// it observes every record emitted before the call.
package engine

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/lockmgr"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/simcore"
	"outlierlb/internal/trace"
)

// Host abstracts where an engine runs: directly on a physical server or
// inside a VM. Both delegate CPU to the machine's cores; VMs route I/O
// through the shared dom-0 channel.
type Host interface {
	// RunCPU schedules work seconds of CPU starting no earlier than now
	// and returns the completion time.
	RunCPU(now, work float64) float64
	// ReadPages reads pages from disk on behalf of class starting no
	// earlier than now and returns the completion time.
	ReadPages(now float64, class string, pages int) float64
}

// ClassSpec describes one query class: all query instances sharing a
// template. The Pattern generator is stateful, so scan-type classes keep
// their position across executions.
type ClassSpec struct {
	ID metrics.ClassID
	// CPUPerQuery is the base CPU demand per execution, in seconds.
	CPUPerQuery float64
	// CPUPerPage is additional CPU per logical page access, in seconds.
	CPUPerPage float64
	// PagesPerQuery is the number of logical page accesses per execution.
	PagesPerQuery int
	// Pattern generates the page reference stream.
	Pattern trace.Generator
	// Write marks update queries, which the replication tier sends to
	// every replica of the application.
	Write bool
	// LockTable, when non-empty, names the table this class locks:
	// write classes take the exclusive lock for LockHold seconds; read
	// classes wait for any exclusive holder before starting.
	LockTable string
	// LockHold is how long a write class holds its exclusive lock, in
	// seconds. Ignored for read classes.
	LockHold float64
}

func (s *ClassSpec) validate() error {
	switch {
	case s.ID.App == "" || s.ID.Class == "":
		return fmt.Errorf("engine: class spec missing identifier: %+v", s.ID)
	case s.CPUPerQuery < 0 || s.CPUPerPage < 0:
		return fmt.Errorf("engine: class %v has negative CPU demand", s.ID)
	case s.PagesPerQuery < 0:
		return fmt.Errorf("engine: class %v has negative page count", s.ID)
	case s.PagesPerQuery > 0 && s.Pattern == nil:
		return fmt.Errorf("engine: class %v accesses pages but has no pattern", s.ID)
	case s.LockHold < 0:
		return fmt.Errorf("engine: class %v has negative lock hold", s.ID)
	case s.LockHold > 0 && s.LockTable == "":
		return fmt.Errorf("engine: class %v holds a lock but names no table", s.ID)
	}
	return nil
}

// Config controls engine construction.
type Config struct {
	// Name identifies the engine (e.g. "mysql-1") in reports.
	Name string
	// Pool configures the buffer pool.
	Pool bufferpool.Config
	// WindowSize is the per-class recent-page-access window capacity.
	// Defaults to 65536.
	WindowSize int
}

// logBufferSize is the capacity of the engine's private logging buffer.
const logBufferSize = 4096

// Engine is one simulated database engine. It is not safe for
// concurrent use.
type Engine struct {
	cfg       Config
	host      Host
	pool      *bufferpool.Pool
	locks     *lockmgr.Manager
	collector *metrics.Collector
	logbuf    *metrics.LogBuffer
	// classes holds every class ever registered. Entries are never
	// removed: Deregister only clears registered, so a class's slot,
	// window and latency estimate survive a later re-Register.
	classes map[metrics.ClassID]*classState
	// last is the entry the latest LatencyEstimate or Execute resolved.
	// The scheduler asks for a class's estimate and then executes the
	// same class, so the second call skips the map.
	last *classState

	// Per-execution scratch used by the pool's miss hook.
	curNow    float64
	curIODone float64
	curSlot   metrics.Slot

	// tracer, when non-nil, lets Execute attach service-phase spans
	// (exec/cpu/disk/lock-wait, pool hit/miss counts) under the query's
	// current span. Nil keeps the path untouched.
	tracer *obs.Tracer

	// Event-core service-phase machinery: each Execute pushes its phase
	// completions onto phaseQ and drains them in virtual-time order. The
	// callbacks are built once at construction and read the ph* scratch
	// fields, so committing a query's phases allocates nothing.
	phaseQ                                       *simcore.Queue
	onLockGrant, onCPUDone, onIODone, onLockHold func()
	phSpanLock, phSpanCPU, phSpanDisk            *obs.Span
	phGrantAt, phCPUDoneAt, phIODoneAt           float64

	// report, when non-nil, corrupts the engine's snapshot transport
	// (see ReportFault); frozen holds the last truthful snapshot for
	// frozen re-delivery. Nil on every honest engine.
	report *ReportFault
	frozen map[metrics.ClassID]metrics.ClassStats
}

// classState is everything the engine keeps per query class, resolved
// once at Register so a query makes one lookup by ClassID.
type classState struct {
	spec       ClassSpec
	registered bool
	// slot is the class's dense accumulation index in the engine's
	// collector, so the per-record hot path indexes a slice instead of
	// hashing the ClassID.
	slot metrics.Slot
	// key is spec.ID.String(), the class's name in the buffer pool and
	// lock manager.
	key string
	// pool is the class's buffer-pool handle, so a page access makes no
	// lookup by name.
	pool *bufferpool.Class
	// win is the class's window of recent page accesses.
	win *metrics.AccessWindow
	// latEst is the EWMA of observed query latency, the service-time
	// estimate behind admission control's deadline-aware early
	// rejection; latSeen is false until the first execution.
	latEst  float64
	latSeen bool
}

// ReportFault is a snapshot-corruption fault: the engine executes
// queries honestly, but the statistics it reports to the controller are
// wrong — the monitoring transport lies, not the machine. It models a
// wedged stats thread (Freeze: the same interval re-delivered), a lossy
// collection hop (Drop: an interval vanishes), or a buggy exporter
// scaling its numbers (LatencyScale).
//
// The underlying interval counters reset on every snapshot regardless,
// exactly like a real engine whose internal counters keep cycling while
// the export path misbehaves.
type ReportFault struct {
	// LatencyScale multiplies reported per-class latency: the vector's
	// Latency and the latency summary. 0 or 1 disables.
	LatencyScale float64
	// Freeze re-delivers the first snapshot taken after installation on
	// every later call — a duplicated interval, repeated.
	Freeze bool
	// Drop reports an empty snapshot — the interval is lost in transit.
	Drop bool
}

// SetReportFault installs (or, with nil, clears) a snapshot-corruption
// fault on the engine's reporting path.
func (e *Engine) SetReportFault(f *ReportFault) {
	e.report = f
	e.frozen = nil
}

// New returns an engine running on host.
func New(cfg Config, host Host) (*Engine, error) {
	if host == nil {
		return nil, fmt.Errorf("engine %q: nil host", cfg.Name)
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 65536
	}
	pool, err := bufferpool.New(cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("engine %q: %w", cfg.Name, err)
	}
	e := &Engine{
		cfg:       cfg,
		host:      host,
		pool:      pool,
		locks:     lockmgr.New(),
		collector: metrics.NewCollector(),
		classes:   make(map[metrics.ClassID]*classState),
	}
	e.logbuf = metrics.NewLogBuffer(logBufferSize, e.collector.Apply)
	e.phaseQ = simcore.NewQueue()
	e.onLockGrant = func() {
		if e.phSpanLock != nil {
			e.phSpanLock.Finish(e.phGrantAt)
		}
	}
	e.onCPUDone = func() {
		if e.phSpanCPU != nil {
			e.phSpanCPU.Finish(e.phCPUDoneAt)
		}
	}
	e.onIODone = func() {
		if e.phSpanDisk != nil {
			e.phSpanDisk.Finish(e.phIODoneAt)
		}
	}
	// Lock release extends the transaction but has no span of its own;
	// its dequeue time alone moves the completion fold.
	e.onLockHold = func() {}
	pool.OnMiss(func(class string, pages int) {
		done := e.host.ReadPages(e.curNow, class, pages)
		if done > e.curIODone {
			e.curIODone = done
		}
		e.logbuf.Append(metrics.Record{Kind: metrics.RecIO, Slot: e.curSlot, Value: float64(pages)})
	})
	pool.OnFlush(func(class string, pages int) {
		// Dirty-page write-back is asynchronous: it occupies the disk
		// (queueing other requests behind it) but does not extend the
		// evicting query's latency. The I/O is charged to the class that
		// dirtied the page, named by its pool key, ClassID.String();
		// Register created every class in the pool.
		e.host.ReadPages(e.curNow, class, pages)
		app, name, _ := strings.Cut(class, "/")
		c := e.classes[metrics.ClassID{App: app, Class: name}]
		e.logbuf.Append(metrics.Record{Kind: metrics.RecIO, Slot: c.slot, Value: float64(pages)})
	})
	return e, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config, host Host) *Engine {
	e, err := New(cfg, host)
	if err != nil {
		panic(err)
	}
	return e
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.cfg.Name }

// Pool exposes the engine's buffer pool (for quota enforcement and
// hit-ratio reporting).
func (e *Engine) Pool() *bufferpool.Pool { return e.pool }

// Host returns the machine the engine runs on.
func (e *Engine) Host() Host { return e.host }

// SetTracer attaches the span tracer Execute nests service-phase spans
// under. Nil (the default) disables engine-side tracing.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Register adds or replaces a query class definition.
func (e *Engine) Register(spec ClassSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	c := e.classes[spec.ID]
	if c == nil {
		c = &classState{win: metrics.NewAccessWindow(e.cfg.WindowSize)}
		e.classes[spec.ID] = c
	}
	c.spec = spec
	c.registered = true
	c.slot = e.collector.SlotFor(spec.ID)
	c.key = spec.ID.String()
	c.pool = e.pool.Class(c.key)
	return nil
}

// Deregister removes a query class (e.g. when the scheduler moves it to a
// different replica). Its statistics and access window are retained for
// post-mortem analysis until the next snapshot.
func (e *Engine) Deregister(id metrics.ClassID) {
	if c := e.classes[id]; c != nil {
		c.registered = false
	}
}

// resolve returns id's entry, or nil when id was never registered.
func (e *Engine) resolve(id metrics.ClassID) *classState {
	if c := e.last; c != nil && c.spec.ID == id {
		return c
	}
	c := e.classes[id]
	if c != nil {
		e.last = c
	}
	return c
}

// Class returns the registered spec for id.
func (e *Engine) Class(id metrics.ClassID) (*ClassSpec, bool) {
	if c := e.classes[id]; c != nil && c.registered {
		return &c.spec, true
	}
	return nil, false
}

// Classes lists registered class identifiers sorted by ID.String().
// Callers feed this order into memory diagnosis, whose merged access
// stream breaks ties by list position, so it must not follow map order.
func (e *Engine) Classes() []metrics.ClassID {
	out := make([]metrics.ClassID, 0, len(e.classes))
	for id, c := range e.classes {
		if c.registered {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return e.classes[out[i]].key < e.classes[out[j]].key })
	return out
}

// Execute runs one query of class id arriving at virtual time now and
// returns its completion time. The query's latency is the maximum of its
// CPU completion and I/O completion, both of which queue behind other
// work on the host.
func (e *Engine) Execute(now float64, id metrics.ClassID) (done float64, err error) {
	c := e.resolve(id)
	if c == nil || !c.registered {
		return now, fmt.Errorf("engine %q: query class %v not registered", e.cfg.Name, id)
	}
	spec := &c.spec
	key := c.key
	win := c.win

	// Service-phase span, nested under the scheduler's current span
	// (the active attempt). sp stays nil on every untraced query, so the
	// guarded blocks below cost one branch each.
	var sp *obs.Span
	if cur := e.tracer.Current(); cur != nil {
		sp = cur.Child(now, obs.SpanExec, e.cfg.Name)
	}

	// Lock acquisition precedes execution: writers take the table's
	// exclusive lock, readers wait out any current holder. Lock waits
	// delay the whole query and are logged per class.
	start := now
	var lockRelease float64
	if spec.LockTable != "" {
		if spec.Write {
			granted, released := e.locks.AcquireExclusive(now, key, spec.LockTable, spec.LockHold)
			start = granted
			lockRelease = released
		} else {
			start = e.locks.WaitShared(now, key, spec.LockTable)
		}
		if wait := start - now; wait > 0 {
			e.logbuf.Append(metrics.Record{Kind: metrics.RecLockWait, Slot: c.slot, Value: wait})
		}
	}

	e.curNow, e.curIODone, e.curSlot = start, start, c.slot
	prefetched := 0
	hits := 0
	for i := 0; i < spec.PagesPerQuery; i++ {
		pg := spec.Pattern.Next()
		var res bufferpool.AccessResult
		if spec.Write {
			res = e.pool.Write(c.pool, pg)
		} else {
			res = e.pool.Access(c.pool, pg)
		}
		win.Add(pg)
		if res.Hit {
			hits++
		}
		prefetched += res.Prefetched
	}
	// The page stream reaches the MRC through the access window; the
	// log carries only the query's access and miss counts (§4).
	if spec.PagesPerQuery > 0 {
		e.logbuf.Append(metrics.Record{Kind: metrics.RecAccess, Slot: c.slot, Value: float64(spec.PagesPerQuery)})
		if misses := spec.PagesPerQuery - hits; misses > 0 {
			e.logbuf.Append(metrics.Record{Kind: metrics.RecMiss, Slot: c.slot, Value: float64(misses)})
		}
	}
	if prefetched > 0 {
		e.logbuf.Append(metrics.Record{Kind: metrics.RecReadAhead, Slot: c.slot, Value: float64(prefetched)})
	}

	cpuWork := spec.CPUPerQuery + float64(spec.PagesPerQuery)*spec.CPUPerPage
	cpuDone := e.host.RunCPU(start, cpuWork)
	done = e.drainPhases(now, start, cpuDone, lockRelease, sp, spec.LockTable)
	if sp != nil {
		sp.Annotate("pool_hits", float64(hits))
		sp.Annotate("pool_misses", float64(spec.PagesPerQuery-hits))
		if prefetched > 0 {
			sp.Annotate("prefetched_pages", float64(prefetched))
		}
		sp.Finish(done)
	}
	e.logbuf.Append(metrics.Record{Kind: metrics.RecQuery, Slot: c.slot, Value: done - now})
	c.observeLatency(done - now)
	return done, nil
}

// drainPhases commits a query's service phases: its lock grant, CPU,
// disk and lock hold become KindPhaseComplete events on the engine's
// queue and are committed in virtual-time order. The spans are created
// eagerly in a fixed order (lock-wait, CPU, disk) so span trees do not
// depend on how the completions interleave; each event's dequeue
// Finishes its span, and the query's completion is the fold of the
// dequeue times: the latest of its CPU, disk and lock-hold completions
// (RunCPU never returns earlier than start, so folding from start is
// exact).
func (e *Engine) drainPhases(now, start, cpuDone, lockRelease float64, sp *obs.Span, lockTable string) float64 {
	e.phSpanLock, e.phSpanCPU, e.phSpanDisk = nil, nil, nil
	if sp != nil {
		if start > now {
			e.phSpanLock = sp.Child(now, obs.SpanLockWait, lockTable)
		}
		e.phSpanCPU = sp.Child(start, obs.SpanCPU, "")
		if e.curIODone > start {
			e.phSpanDisk = sp.Child(start, obs.SpanDisk, "")
		}
	}
	if start > now {
		e.phGrantAt = start
		e.phaseQ.Push(start, simcore.KindPhaseComplete, e.onLockGrant)
	}
	e.phCPUDoneAt = cpuDone
	e.phaseQ.Push(cpuDone, simcore.KindPhaseComplete, e.onCPUDone)
	if e.curIODone > start {
		e.phIODoneAt = e.curIODone
		e.phaseQ.Push(e.curIODone, simcore.KindPhaseComplete, e.onIODone)
	}
	if lockRelease > 0 {
		e.phaseQ.Push(lockRelease, simcore.KindPhaseComplete, e.onLockHold)
	}
	done := start
	for {
		at, _, fn, ok := e.phaseQ.Pop()
		if !ok {
			break
		}
		fn()
		if at > done {
			done = at
		}
	}
	return done
}

// PhaseEventStats reports the cumulative traffic through the engine's
// service-phase event queue.
func (e *Engine) PhaseEventStats() simcore.Stats {
	return e.phaseQ.Stats()
}

// latencyEWMAAlpha is the smoothing factor of the per-class latency
// estimate: recent queries dominate (≈5-query memory) so the estimate
// tracks load swings quickly without flapping on a single slow query.
const latencyEWMAAlpha = 0.2

func (c *classState) observeLatency(lat float64) {
	if c.latSeen {
		c.latEst += latencyEWMAAlpha * (lat - c.latEst)
	} else {
		c.latEst, c.latSeen = lat, true
	}
}

// LatencyEstimate reports the EWMA of class id's recent query latencies
// on this engine (0 before the first execution). Admission control uses
// it, plus the host's instantaneous backlog, to predict whether a new
// query can finish inside its deadline.
func (e *Engine) LatencyEstimate(id metrics.ClassID) float64 {
	if c := e.resolve(id); c != nil {
		return c.latEst
	}
	return 0
}

// Locks exposes the engine's lock manager (for contention diagnosis).
func (e *Engine) Locks() *lockmgr.Manager { return e.locks }

// Snapshot flushes the logging buffer and returns per-class stats for a
// measurement interval of the given length in seconds, resetting the
// interval counters; withHist attaches each active class's latency
// histogram (see metrics.Collector.Snapshot). An installed ReportFault
// then corrupts what is reported.
func (e *Engine) Snapshot(interval float64, withHist bool) map[metrics.ClassID]metrics.ClassStats {
	e.logbuf.Flush()
	snap := e.collector.Snapshot(interval, withHist)
	f := e.report
	if f == nil {
		return snap
	}
	if f.Drop {
		return map[metrics.ClassID]metrics.ClassStats{}
	}
	if f.Freeze {
		if e.frozen == nil {
			e.frozen = snap
		}
		snap = maps.Clone(e.frozen)
	}
	if f.LatencyScale > 0 && f.LatencyScale != 1 {
		// Scale the headline numbers; the histogram (a private
		// per-interval copy) is left untouched — a real buggy exporter
		// scales its headline numbers, not every bucket.
		for id, s := range snap {
			s.Vector[metrics.Latency] *= f.LatencyScale
			s.Latency.Mean *= f.LatencyScale
			s.Latency.P50 *= f.LatencyScale
			s.Latency.P95 *= f.LatencyScale
			s.Latency.P99 *= f.LatencyScale
			s.Latency.Max *= f.LatencyScale
			snap[id] = s
		}
	}
	return snap
}

// Window returns a copy of the recent page accesses of class id (oldest
// first). MRC recomputation reads only the tail it needs, in place,
// through WindowTail.
func (e *Engine) Window(id metrics.ClassID) []uint64 {
	if c := e.classes[id]; c != nil {
		return c.win.Snapshot()
	}
	return nil
}

// WindowTail returns the n most recent page accesses of class id (fewer
// when its window holds fewer) as two slices of the window's ring, older
// then newer; see metrics.AccessWindow.Tail. They stay valid until the
// class's next query executes.
func (e *Engine) WindowTail(id metrics.ClassID, n int) (older, newer []uint64) {
	if c := e.classes[id]; c != nil {
		return c.win.Tail(n)
	}
	return nil, nil
}

// HitRatio reports the buffer-pool hit ratio observed for class id since
// pool statistics were last reset.
func (e *Engine) HitRatio(id metrics.ClassID) float64 {
	return e.pool.Stats(id.String()).HitRatio()
}
