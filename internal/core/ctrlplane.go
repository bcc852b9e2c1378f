package core

// This file is the message-passing control plane: every
// controller↔engine interaction — snapshot collection, retuning actions,
// liveness — travels over an internal/ctrlnet Network, so partitions,
// loss, duplication and delay become first-class faults the controller
// must survive.
//
// The protocol has three strands:
//
//   - Snapshots are engine-PUSHED: each server runs an agent that drains
//     its engines once per interval (on its own, true, clock) and sends a
//     sequence-numbered report. The controller consumes the freshest
//     report per server at its tick; a missing or stale report makes the
//     server dark — the existing metric-blackout degradation machinery
//     takes over, narrated, with gap normalization handled agent-side.
//
//   - Actions are RPCs with at-least-once delivery and exactly-once
//     application: a request carries a unique action ID and the
//     controller's fencing epoch; the engine agent rejects requests from
//     a deposed epoch, suppresses duplicate deliveries by re-acking the
//     stored result, and refuses everything while its lease has expired
//     (autonomy: the engine holds its last-leased configuration and
//     never widens it). The controller retries on ack timeout with
//     capped exponential backoff and abandons actions whose target goes
//     unreachable.
//
//   - Heartbeats drive a per-server failure detector (reachable →
//     suspect → unreachable). An unreachable declaration advances the
//     fencing epoch, so in-flight actions stamped before the declaration
//     can never be applied after the controller's view has moved on.
//
// The perfect channel: NewController attaches a plane over a network
// whose links are perfect, on which ctrlnet delivers inline and
// synchronously. Every action's round trip then completes within the
// call that sent it, and the agent round fires immediately before the
// tick at the same virtual time, so each tick consumes the reports
// drained at that instant. Such a run schedules no message event and
// makes no random draw. The experiments testbed replaces that plane
// before Start, through AttachControlPlane, with one over a seeded
// network of its own, which the ctrl-* chaos scenarios and the -ctrl.*
// flags degrade.

import (
	"fmt"
	"math"
	"sort"

	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// CtrlEndpoint is the controller's mailbox name on the control network;
// engine agents register under their server's name.
const CtrlEndpoint = "controller"

// Control-plane protocol constants; times are in virtual seconds.
const (
	// initialAckTimeout is the wait for an action ack before the first
	// retransmission; maxBackoff caps the exponential backoff.
	initialAckTimeout = 1.0
	maxBackoff        = 8.0
	// maxRetries bounds retransmissions per action before the controller
	// abandons it.
	maxRetries = 6
	// suspectAfter is the consecutive missed heartbeat acks that move a
	// server from reachable to suspect; unreachableAfter declares it
	// unreachable (and advances the fencing epoch).
	suspectAfter     = 2
	unreachableAfter = 3
	// leaseIntervals is how many controller intervals one heartbeat
	// leases an engine to the controller; an agent whose lease expires
	// falls back to local autonomy.
	leaseIntervals = 3
)

// fdVerdict is the failure detector's view of one server.
type fdVerdict int

const (
	fdReachable fdVerdict = iota
	fdSuspect
	fdUnreachable
)

func (v fdVerdict) String() string {
	switch v {
	case fdSuspect:
		return "suspect"
	case fdUnreachable:
		return "unreachable"
	default:
		return "reachable"
	}
}

type fdState struct {
	state  fdVerdict
	missed int
}

// Wire messages. Payloads carry in-process pointers because the network
// is simulated; a real deployment would marshal typed commands, but the
// sequencing, fencing and retry semantics here are exactly the ones that
// split would need.
type hbMsg struct {
	seq   uint64
	epoch uint64
}

type hbAck struct {
	seq        uint64
	autonomous bool
}

type actionReq struct {
	id    uint64
	epoch uint64
	label string
	apply func() any
}

// Ack verdicts an engine agent can return for an action request.
const (
	ackApplied    = "applied"
	ackStaleEpoch = "stale-epoch"
	ackNoLease    = "no-lease"
)

type actionAck struct {
	id      uint64
	verdict string
	res     any
}

// engineReport is one engine's drained interval inside a server report.
type engineReport struct {
	eng     *engine.Engine
	grouped map[string]map[metrics.ClassID]metrics.Vector
	// classes and engObs are pre-built observability payloads (sorted by
	// class ID), populated only when an observer is attached.
	classes []obs.ClassLatencyObs
	engObs  obs.EngineObs
}

// serverReport is one agent round's snapshot push.
type serverReport struct {
	srv        *server.Server
	seq        uint64
	at         float64 // true virtual time of the drain
	blackedOut bool
	cpu, disk  float64
	engines    []engineReport
}

// ctrlAgent is the engine-side endpoint on one server: it drains that
// server's engines each round, answers heartbeats, and applies (or
// fences off) action requests.
type ctrlAgent struct {
	cp   *ControlPlane
	srv  *server.Server
	name string

	seq       uint64
	lastDrain map[*engine.Engine]float64

	lastEpoch  uint64
	leaseUntil float64
	autonomous bool

	// applied stores the ack of every applied action by ID so duplicate
	// deliveries re-ack the stored result instead of reapplying.
	applied      map[uint64]actionAck
	applications map[uint64]int

	epochRejections  uint64
	dupSuppressed    uint64
	autonomyEpisodes int
}

// pendingAction is one controller-side action RPC awaiting its ack.
type pendingAction struct {
	id       uint64
	srv      string
	app      string
	label    string
	attempts int
	timer    sim.Event
	apply    func() any
	finish   func(at float64, res any)
	span     *obs.Span
	res      any
	done     bool
}

// invokeOutcome reports how a remote action invocation resolved at the
// call site.
type invokeOutcome int

const (
	// invokeInline: the round trip completed synchronously (direct mode
	// or a perfect channel) and the result is authoritative.
	invokeInline invokeOutcome = iota
	// invokeInFlight: the request is traveling; the ack (and finish
	// callback) will arrive later, if at all.
	invokeInFlight
	// invokeRefused: the target is unreachable and nothing was sent.
	invokeRefused
)

// ControlPlane routes a Controller's engine interactions over a ctrlnet
// Network. Construct with Controller.AttachControlPlane.
type ControlPlane struct {
	sim *sim.Engine
	net *ctrlnet.Network
	ctl *Controller
	tr  *obs.Tracer
	// leaseFor is one heartbeat's lease: leaseIntervals controller
	// intervals.
	leaseFor float64

	agents   map[string]*ctrlAgent
	reports  map[*server.Server]*serverReport
	consumed map[*server.Server]uint64
	// lastCollect is the true virtual time of the previous report
	// consumption — the staleness bar: a report drained at or before it
	// describes an interval the controller already closed.
	lastCollect float64

	epoch uint64
	hbSeq map[string]uint64
	acked map[string]uint64
	fd    map[string]*fdState

	pending    map[uint64]*pendingAction
	nextAction uint64

	retries   uint64
	abandoned uint64

	started bool
}

// AttachControlPlane routes this controller's snapshot collection,
// heartbeats and retuning actions over net, replacing the plane the
// controller had (NewController attaches one over a perfect channel).
// Must be called before Start. The returned plane is the handle for
// fault injection helpers and protocol statistics.
func (c *Controller) AttachControlPlane(net *ctrlnet.Network) *ControlPlane {
	cp := &ControlPlane{
		sim:      c.sim,
		net:      net,
		ctl:      c,
		leaseFor: leaseIntervals * c.cfg.Interval,
		agents:   make(map[string]*ctrlAgent),
		reports:  make(map[*server.Server]*serverReport),
		consumed: make(map[*server.Server]uint64),
		hbSeq:    make(map[string]uint64),
		acked:    make(map[string]uint64),
		fd:       make(map[string]*fdState),
		pending:  make(map[uint64]*pendingAction),
	}
	net.Endpoint(CtrlEndpoint, cp.onControllerMsg)
	c.cp = cp
	return cp
}

// SetTracer attaches the span tracer used for ctrl-action marker spans
// on non-inline action deliveries. Perfect-channel runs complete every
// delivery inline and therefore never create these spans.
func (cp *ControlPlane) SetTracer(t *obs.Tracer) { cp.tr = t }

// Network exposes the underlying control network (fault injection).
func (cp *ControlPlane) Network() *ctrlnet.Network { return cp.net }

// Epoch reports the current fencing epoch.
func (cp *ControlPlane) Epoch() uint64 { return cp.epoch }

// FDState reports the failure detector's verdict for a server.
func (cp *ControlPlane) FDState(server string) string { return cp.fdOf(server).state.String() }

// CtrlInvariants are the protocol-safety counters the chaos scenarios
// assert over.
type CtrlInvariants struct {
	// MaxApplications is the maximum number of times any single action
	// was applied engine-side; >1 would mean a duplicate slipped the
	// idempotency guard.
	MaxApplications int
	// EpochRejections counts actions fenced off for a deposed epoch.
	EpochRejections uint64
	// DupSuppressed counts duplicate deliveries answered from the
	// stored-ack cache.
	DupSuppressed uint64
	// Retries counts action retransmissions after ack timeouts.
	Retries uint64
	// Abandoned counts actions the controller gave up on.
	Abandoned uint64
	// AutonomyEpisodes counts engine lease expiries across all agents.
	AutonomyEpisodes int
	// Epoch is the final fencing epoch.
	Epoch uint64
}

// Invariants collects the protocol-safety counters across all agents.
func (cp *ControlPlane) Invariants() CtrlInvariants {
	inv := CtrlInvariants{Retries: cp.retries, Abandoned: cp.abandoned, Epoch: cp.epoch}
	for _, a := range cp.agents {
		inv.EpochRejections += a.epochRejections
		inv.DupSuppressed += a.dupSuppressed
		inv.AutonomyEpisodes += a.autonomyEpisodes
		for _, n := range a.applications {
			if n > inv.MaxApplications {
				inv.MaxApplications = n
			}
		}
	}
	return inv
}

// start schedules the per-interval agent rounds. Called from
// Controller.Start BEFORE the tick chain is scheduled, so each round's
// event precedes its tick in FIFO order at the same timestamp — reports
// over a perfect channel land at the instant the tick consumes them.
func (cp *ControlPlane) start() {
	if cp.started {
		return
	}
	cp.started = true
	cp.lastCollect = cp.sim.Now().Seconds()
	var round func()
	round = func() {
		cp.agentRound()
		cp.sim.ScheduleKind(simcore.KindIntervalTick, cp.ctl.cfg.Interval, round)
	}
	cp.sim.ScheduleKind(simcore.KindIntervalTick, cp.ctl.cfg.Interval, round)
}

func (cp *ControlPlane) fdOf(name string) *fdState {
	st := cp.fd[name]
	if st == nil {
		st = &fdState{}
		cp.fd[name] = st
	}
	return st
}

func (cp *ControlPlane) emit(e obs.Event) {
	if cp.ctl.observing {
		cp.ctl.observer.Event(e)
	}
}

func (cp *ControlPlane) ensureAgents() {
	for _, srv := range cp.ctl.mgr.Servers() {
		cp.ensureAgentFor(srv)
	}
}

func (cp *ControlPlane) ensureAgentFor(srv *server.Server) *ctrlAgent {
	a := cp.agents[srv.Name()]
	if a == nil {
		a = &ctrlAgent{
			cp:   cp,
			srv:  srv,
			name: srv.Name(),
			// A fresh agent starts leased: it was just provisioned by the
			// controller, which is as alive as evidence gets.
			leaseUntil:   cp.sim.Now().Seconds() + cp.leaseFor,
			lastDrain:    make(map[*engine.Engine]float64),
			applied:      make(map[uint64]actionAck),
			applications: make(map[uint64]int),
		}
		cp.agents[a.name] = a
		cp.net.Endpoint(a.name, a.onMsg)
	}
	return a
}

func (cp *ControlPlane) agentByName(name string) *ctrlAgent {
	if a := cp.agents[name]; a != nil {
		return a
	}
	for _, srv := range cp.ctl.mgr.Servers() {
		if srv.Name() == name {
			return cp.ensureAgentFor(srv)
		}
	}
	return nil
}

// agentRound runs every server's agent once: lease check, drain, report.
func (cp *ControlPlane) agentRound() {
	now := cp.sim.Now().Seconds()
	cp.ensureAgents()
	for _, srv := range cp.ctl.mgr.Servers() {
		cp.agents[srv.Name()].round(now)
	}
}

// tickBegin runs the controller-side heartbeat/failure-detector step at
// the top of every controller tick: score the previous heartbeat's ack,
// transition detector states, then send this tick's heartbeat.
func (cp *ControlPlane) tickBegin(now float64) {
	cp.ensureAgents()
	for _, srv := range cp.ctl.mgr.Servers() {
		name := srv.Name()
		st := cp.fdOf(name)
		if cp.hbSeq[name] > cp.acked[name] {
			st.missed++
			switch {
			case st.state == fdReachable && st.missed >= suspectAfter:
				st.state = fdSuspect
				cp.emit(obs.Event{
					Time: now, Kind: obs.EventCtrlSuspect, Server: name,
					Cause:  fmt.Sprintf("%d consecutive heartbeat acks missed", st.missed),
					Fields: map[string]float64{"missed_acks": float64(st.missed)},
				})
			case st.state == fdSuspect && st.missed >= unreachableAfter:
				st.state = fdUnreachable
				cp.epoch++
				cp.emit(obs.Event{
					Time: now, Kind: obs.EventCtrlUnreachable, Server: name,
					Cause:  fmt.Sprintf("%d consecutive heartbeat acks missed; diagnosis suspended", st.missed),
					Fields: map[string]float64{"missed_acks": float64(st.missed)},
				})
				cp.emit(obs.Event{
					Time: now, Kind: obs.EventCtrlEpoch, Server: name,
					Cause:  fmt.Sprintf("epoch advanced to %d: %s deposed from the control view", cp.epoch, name),
					Fields: map[string]float64{"epoch": float64(cp.epoch)},
				})
				cp.abandonServer(name, "target declared unreachable")
			}
		}
		cp.hbSeq[name]++
		cp.net.Send(CtrlEndpoint, name, hbMsg{seq: cp.hbSeq[name], epoch: cp.epoch})
	}
}

// abandonServer abandons every pending action addressed to name, in
// action-ID order so the narration is deterministic.
func (cp *ControlPlane) abandonServer(name, cause string) {
	var ids []uint64
	for id, p := range cp.pending {
		if p.srv == name {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cp.abandon(cp.pending[id], cause)
	}
}

func (cp *ControlPlane) abandon(p *pendingAction, cause string) {
	if p == nil || p.done {
		return
	}
	p.done = true
	p.timer.Cancel()
	delete(cp.pending, p.id)
	cp.abandoned++
	now := cp.sim.Now().Seconds()
	cp.emit(obs.Event{
		Time: now, Kind: obs.EventCtrlAbandoned, Server: p.srv, App: p.app,
		Cause: p.label + ": " + cause,
	})
	if p.span != nil {
		p.span.Fail(cause)
		p.span.Finish(now)
	}
}

// invoke sends an action RPC to the agent on srv. apply runs engine-side
// (exactly once); finish runs controller-side when the applied ack
// arrives. Over a perfect channel the whole round trip completes inline
// and the result is returned; otherwise the call is in flight — or
// refused outright when the target is already declared unreachable.
func (cp *ControlPlane) invoke(now float64, srvName, app, label string,
	apply func() any, finish func(at float64, res any)) (any, invokeOutcome) {
	a := cp.agentByName(srvName)
	if a == nil {
		// No such server (decommissioned between diagnosis and action,
		// or none named): apply inline rather than black-holing the
		// action.
		res := apply()
		finish(now, res)
		return res, invokeInline
	}
	if cp.fdOf(srvName).state == fdUnreachable {
		cp.emit(obs.Event{
			Time: now, Kind: obs.EventCtrlAbandoned, Server: srvName, App: app,
			Cause: label + ": target unreachable; action not sent",
		})
		return nil, invokeRefused
	}
	cp.nextAction++
	p := &pendingAction{id: cp.nextAction, srv: srvName, app: app, label: label, apply: apply, finish: finish}
	cp.pending[p.id] = p
	cp.dispatch(p)
	if p.done {
		return p.res, invokeInline
	}
	// Non-inline delivery: open a marker span for the message hops. The
	// first send already happened, at this same virtual time.
	trueNow := cp.sim.Now().Seconds()
	if sp := cp.tr.StartMarker(trueNow, app, label); sp != nil {
		sp.Kind = obs.SpanCtrlAction
		sp.Server = srvName
		sp.AddEvent(trueNow, obs.EventCtrlSend, "attempt 1", nil)
		p.span = sp
	}
	return nil, invokeInFlight
}

// dispatch transmits (or retransmits) p's request and arms the ack
// timeout. Requests are re-stamped with the current epoch on every
// attempt: the controller still holds the leadership it is exercising,
// and a retry is a fresh claim of it.
func (cp *ControlPlane) dispatch(p *pendingAction) {
	req := actionReq{id: p.id, epoch: cp.epoch, label: p.label, apply: p.applyFn}
	cp.net.Send(CtrlEndpoint, p.srv, req)
	if p.done {
		return // perfect channel: the ack round-tripped inline
	}
	timeout := initialAckTimeout * math.Pow(2, float64(p.attempts))
	if timeout > maxBackoff {
		timeout = maxBackoff
	}
	p.timer = cp.sim.ScheduleKind(simcore.KindControlAction, timeout, func() { cp.ackTimeout(p) })
}

func (cp *ControlPlane) ackTimeout(p *pendingAction) {
	if p.done {
		return
	}
	p.attempts++
	if p.attempts > maxRetries {
		cp.abandon(p, fmt.Sprintf("no ack after %d attempts", p.attempts))
		return
	}
	cp.retries++
	now := cp.sim.Now().Seconds()
	cp.emit(obs.Event{
		Time: now, Kind: obs.EventCtrlRetry, Server: p.srv, App: p.app,
		Cause:  fmt.Sprintf("%s: ack timeout, retry %d/%d", p.label, p.attempts, maxRetries),
		Fields: map[string]float64{"attempt": float64(p.attempts)},
	})
	if p.span != nil {
		p.span.AddEvent(now, obs.EventCtrlSend, fmt.Sprintf("attempt %d", p.attempts+1), nil)
	}
	cp.dispatch(p)
}

// onControllerMsg is the controller endpoint's mailbox handler.
func (cp *ControlPlane) onControllerMsg(from string, payload any) {
	switch m := payload.(type) {
	case *serverReport:
		// Sequence guard: a reordered older report must not overwrite a
		// newer one.
		if cur := cp.reports[m.srv]; cur == nil || m.seq > cur.seq {
			cp.reports[m.srv] = m
		}
	case hbAck:
		cp.onHbAck(from, m)
	case actionAck:
		cp.onActionAck(m)
	}
}

func (cp *ControlPlane) onHbAck(from string, m hbAck) {
	if m.seq > cp.acked[from] {
		cp.acked[from] = m.seq
	}
	st := cp.fdOf(from)
	st.missed = 0
	if st.state != fdReachable {
		prev := st.state
		st.state = fdReachable
		cp.emit(obs.Event{
			Time: cp.sim.Now().Seconds(), Kind: obs.EventCtrlReachable, Server: from,
			Cause: "heartbeat ack received while " + prev.String(),
		})
	}
}

func (cp *ControlPlane) onActionAck(m actionAck) {
	p := cp.pending[m.id]
	if p == nil || p.done {
		return // duplicate or late ack for a finished/abandoned action
	}
	p.done = true
	p.timer.Cancel()
	delete(cp.pending, m.id)
	trueNow := cp.sim.Now().Seconds()
	if p.span != nil {
		p.span.AddEvent(trueNow, obs.EventCtrlAck, m.verdict, nil)
		if m.verdict != ackApplied {
			p.span.Fail(m.verdict)
		}
		p.span.Finish(trueNow)
	}
	switch m.verdict {
	case ackApplied:
		p.res = m.res
		p.finish(trueNow+cp.ctl.curClockOffset(), m.res)
	default:
		cp.abandoned++
		cp.emit(obs.Event{
			Time: trueNow, Kind: obs.EventCtrlAbandoned, Server: p.srv, App: p.app,
			Cause: fmt.Sprintf("%s: engine rejected action (%s)", p.label, m.verdict),
		})
	}
}

// applyFn exists so dispatch can rebuild the request on retries without
// capturing the apply closure twice.
func (p *pendingAction) applyFn() any { return p.apply() }

// collect consumes the freshest report per server. Servers without a
// fresh report are dark this tick —
// blacked out, narrated, and excluded from diagnosis, exactly like a
// metric blackout.
func (cp *ControlPlane) collect(now float64, clockAnomaly bool,
	snaps map[*engine.Engine]map[string]map[metrics.ClassID]metrics.Vector,
	cpu map[*server.Server]float64, blackout map[*server.Server]bool) {
	c := cp.ctl
	for _, srv := range c.mgr.Servers() {
		if clockAnomaly {
			// With the controller's clock suspect, take nothing this tick.
			// But realign the sampling windows to the TRUE clock, not the
			// skewed controller clock — the agents keep draining them on
			// virtual time, and a window mark left at a future timestamp
			// would read as idle for intervals afterwards, the exact
			// fake-idle signal that feeds a false shrink. The agents'
			// reports for this interval are discarded rather than trusted.
			srv.ResyncObservation(cp.sim.Now().Seconds())
			blackout[srv] = true
			if rep := cp.reports[srv]; rep != nil {
				cp.consumed[srv] = rep.seq
			}
			continue
		}
		rep := cp.reports[srv]
		fresh := rep != nil && rep.seq > cp.consumed[srv] && rep.at > cp.lastCollect
		if !fresh {
			blackout[srv] = true
			if c.observing {
				cause := "control channel: no fresh snapshot report this interval; treating metrics as unreachable"
				if rep != nil && rep.seq > cp.consumed[srv] {
					cause = fmt.Sprintf("control channel: freshest snapshot report is %.0fs stale; treating metrics as unreachable",
						cp.sim.Now().Seconds()-rep.at)
				}
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventDegradedAnalysis, Server: srv.Name(), Cause: cause,
				})
			}
			continue
		}
		cp.consumed[srv] = rep.seq
		if rep.blackedOut {
			blackout[srv] = true
			if c.observing {
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventDegradedAnalysis, Server: srv.Name(),
					Cause: "metrics unreachable; no utilization sample or engine snapshot this interval",
				})
			}
			continue
		}
		cpu[srv] = rep.cpu
		if c.cfg.FrozenMetricsAfter > 0 && c.frozenServerSample(srv, rep.cpu, rep.disk) {
			blackout[srv] = true
			delete(cpu, srv)
			if c.observing {
				c.observer.Event(obs.Event{
					Time: now, Kind: obs.EventDegradedAnalysis, Server: srv.Name(),
					Cause: fmt.Sprintf("utilization sample frozen for >%d intervals; treating metrics as unreachable",
						c.cfg.FrozenMetricsAfter),
				})
			}
			continue
		}
		var engObs []obs.EngineObs
		for _, er := range rep.engines {
			if c.cfg.FrozenMetricsAfter > 0 && c.frozenEngineSnap(er.eng, er.grouped) {
				if c.observing {
					c.observer.Event(obs.Event{
						Time: now, Kind: obs.EventDegradedAnalysis, Server: srv.Name(),
						Cause: fmt.Sprintf("engine %s snapshot frozen for >%d intervals; report discarded",
							er.eng.Name(), c.cfg.FrozenMetricsAfter),
					})
				}
				continue
			}
			snaps[er.eng] = er.grouped
			if c.observing {
				for _, cl := range er.classes {
					c.observer.ClassLatency(cl)
				}
				engObs = append(engObs, er.engObs)
			}
		}
		if c.observing {
			c.observer.ServerSampled(obs.ServerObs{
				Time: now, Server: srv.Name(), CPU: rep.cpu, Disk: rep.disk, Engines: engObs,
			})
		}
	}
	cp.lastCollect = cp.sim.Now().Seconds()
}

// sample emits the per-tick control-plane observation.
func (cp *ControlPlane) sample(now float64) {
	if !cp.ctl.observing {
		return
	}
	ns := cp.net.Stats()
	co := obs.CtrlObs{
		Time:          now,
		Epoch:         cp.epoch,
		Sent:          ns.Sent,
		Delivered:     ns.Delivered,
		Dropped:       ns.Dropped + ns.PartitionDropped + ns.PartitionCancelled,
		Duplicated:    ns.Duplicated,
		ActionRetries: cp.retries,
	}
	for _, srv := range cp.ctl.mgr.Servers() {
		a := cp.agents[srv.Name()]
		if a == nil {
			continue
		}
		co.EpochRejections += a.epochRejections
		co.DupSuppressed += a.dupSuppressed
		st := cp.fdOf(a.name)
		co.Servers = append(co.Servers, obs.CtrlServerObs{
			Server: a.name, State: st.state.String(),
			MissedAcks: st.missed, Autonomous: a.autonomous,
		})
	}
	cp.ctl.observer.CtrlSampled(co)
}

// ---- engine-side agent ----

func (a *ctrlAgent) onMsg(from string, payload any) {
	switch m := payload.(type) {
	case hbMsg:
		a.onHeartbeat(m)
	case actionReq:
		a.onAction(m)
	}
}

// checkLease flips the agent into local autonomy when its lease has
// expired: admission gates and brownout state hold the last-leased
// configuration (every action is refused, so nothing can widen) until a
// heartbeat renews the lease.
func (a *ctrlAgent) checkLease(now float64) {
	if a.autonomous || now <= a.leaseUntil {
		return
	}
	a.autonomous = true
	a.autonomyEpisodes++
	a.cp.emit(obs.Event{
		Time: now, Kind: obs.EventCtrlAutonomy, Server: a.name,
		Cause:  fmt.Sprintf("lease expired %.1fs ago; holding last-leased configuration", now-a.leaseUntil),
		Fields: map[string]float64{"lease_expired_for": now - a.leaseUntil},
	})
}

func (a *ctrlAgent) onHeartbeat(m hbMsg) {
	now := a.cp.sim.Now().Seconds()
	if m.epoch > a.lastEpoch {
		a.lastEpoch = m.epoch
	}
	a.leaseUntil = now + a.cp.leaseFor
	if a.autonomous {
		a.autonomous = false
		a.cp.emit(obs.Event{
			Time: now, Kind: obs.EventCtrlLeaseRenewed, Server: a.name,
			Cause: "heartbeat received; leaving local autonomy",
		})
	}
	a.cp.net.Send(a.name, CtrlEndpoint, hbAck{seq: m.seq, autonomous: a.autonomous})
}

func (a *ctrlAgent) onAction(req actionReq) {
	now := a.cp.sim.Now().Seconds()
	a.checkLease(now)
	// Idempotency first: a duplicate of an APPLIED action re-acks the
	// stored result no matter what epoch either delivery carried — the
	// work happened exactly once, under an epoch that was valid then.
	if ack, ok := a.applied[req.id]; ok {
		a.dupSuppressed++
		a.cp.emit(obs.Event{
			Time: now, Kind: obs.EventCtrlDupAction, Server: a.name,
			Cause: req.label + ": duplicate delivery suppressed; re-acking stored result",
		})
		a.cp.net.Send(a.name, CtrlEndpoint, ack)
		return
	}
	// Epoch fence: a request stamped before the controller last advanced
	// its view (a delayed duplicate from a deposed epoch) must not apply.
	if req.epoch < a.lastEpoch {
		a.epochRejections++
		a.cp.emit(obs.Event{
			Time: now, Kind: obs.EventCtrlStaleEpoch, Server: a.name,
			Cause:  fmt.Sprintf("%s: request epoch %d < engine epoch %d; rejected", req.label, req.epoch, a.lastEpoch),
			Fields: map[string]float64{"request_epoch": float64(req.epoch), "engine_epoch": float64(a.lastEpoch)},
		})
		a.cp.net.Send(a.name, CtrlEndpoint, actionAck{id: req.id, verdict: ackStaleEpoch})
		return
	}
	a.lastEpoch = req.epoch
	// No lease, no action: an autonomous engine holds its configuration.
	// Rejections are NOT cached — a retry after the lease renews may
	// legitimately apply.
	if a.autonomous {
		a.cp.net.Send(a.name, CtrlEndpoint, actionAck{id: req.id, verdict: ackNoLease})
		return
	}
	res := req.apply()
	a.applications[req.id]++
	ack := actionAck{id: req.id, verdict: ackApplied, res: res}
	a.applied[req.id] = ack
	a.cp.net.Send(a.name, CtrlEndpoint, ack)
}

// round is one agent reporting cycle: check the lease, drain this
// server's engines on the true clock, push the report. During a metric
// blackout the agent reports the blackout itself and drains nothing, so
// the counters keep accumulating for gap normalization on recovery.
func (a *ctrlAgent) round(now float64) {
	a.checkLease(now)
	a.seq++
	rep := &serverReport{srv: a.srv, seq: a.seq, at: now}
	if a.srv.MetricsBlackedOut() {
		rep.blackedOut = true
		a.cp.net.Send(a.name, CtrlEndpoint, rep)
		return
	}
	rep.cpu = a.srv.CPUUtilization(now)
	rep.disk = a.srv.Disk().UtilizationWindow(now)
	c := a.cp.ctl
	for _, eng := range c.mgr.EnginesOn(a.srv) {
		// The first drain after a blackout (or for a fresh engine on this
		// server) normalizes accumulated counters over the true gap, not
		// one interval.
		engInterval := c.cfg.Interval
		if last, ok := a.lastDrain[eng]; ok && now-last > 0 {
			engInterval = now - last
		}
		a.lastDrain[eng] = now
		grouped, flat := c.analyzer(eng).Snapshot(engInterval, c.observing)
		er := engineReport{eng: eng, grouped: grouped}
		if !c.observing {
			rep.engines = append(rep.engines, er)
			continue
		}
		ids := make([]metrics.ClassID, 0, len(flat))
		for id := range flat {
			if flat[id].Latency.Count > 0 {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
		for _, id := range ids {
			st := flat[id]
			er.classes = append(er.classes, obs.ClassLatencyObs{
				Server: a.name, App: id.App, Class: id.Class,
				Count: st.Latency.Count, Mean: st.Latency.Mean,
				P50: st.Latency.P50, P95: st.Latency.P95, P99: st.Latency.P99,
				Max: st.Latency.Max, Hist: st.Hist,
			})
		}
		pool := eng.Pool()
		er.engObs = obs.EngineObs{
			Engine:    eng.Name(),
			HitRatio:  pool.TotalStats().HitRatio(),
			Resident:  pool.Resident(),
			Capacity:  pool.Capacity(),
			QuotaKeys: len(pool.Quotas()),
		}
		rep.engines = append(rep.engines, er)
	}
	a.cp.net.Send(a.name, CtrlEndpoint, rep)
}
