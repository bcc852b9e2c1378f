package core

import (
	"testing"

	"outlierlb/internal/ctrlnet"
)

// newCtrlTestbed is newTestbed plus an attached message-passing control
// plane over a perfect (inline-delivery) network.
func newCtrlTestbed(t testing.TB, servers int) (*testbed, *ControlPlane, *ctrlnet.Network) {
	t.Helper()
	tb := newTestbed(t, servers, 2000, Config{Interval: 10})
	net := ctrlnet.New(tb.sim, 7)
	cp := tb.ctl.AttachControlPlane(net)
	return tb, cp, net
}

// ackRecorder replaces the controller mailbox with a recorder so a test
// can observe the raw acks an agent sends, without the controller's
// pending-action bookkeeping interpreting them first.
func ackRecorder(net *ctrlnet.Network) *[]actionAck {
	var acks []actionAck
	net.Endpoint(CtrlEndpoint, func(from string, payload any) {
		if m, ok := payload.(actionAck); ok {
			acks = append(acks, m)
		}
	})
	return &acks
}

// TestCtrlStaleEpochRejected is the fencing property: a delayed
// duplicate of an action request stamped with a deposed epoch must be
// rejected engine-side — the apply closure never runs — and the
// controller abandons the action instead of treating the rejection as a
// result.
func TestCtrlStaleEpochRejected(t *testing.T) {
	_, cp, net := newCtrlTestbed(t, 1)
	cp.ensureAgents()
	a := cp.agents["srv1"]
	// The agent has seen heartbeats from epoch 2; epoch 1 is deposed.
	a.lastEpoch = 2

	applied, finished := false, false
	p := &pendingAction{
		id: 7, srv: "srv1", app: "shop", label: "pool grow",
		apply:  func() any { applied = true; return nil },
		finish: func(at float64, res any) { finished = true },
	}
	cp.pending[p.id] = p
	net.Send(CtrlEndpoint, "srv1", actionReq{id: p.id, epoch: 1, label: p.label, apply: p.applyFn})

	if applied {
		t.Fatal("a deposed-epoch request ran its apply closure")
	}
	if finished {
		t.Fatal("controller finish callback ran for a fenced-off action")
	}
	if a.epochRejections != 1 {
		t.Fatalf("epochRejections = %d, want 1", a.epochRejections)
	}
	if n := a.applications[p.id]; n != 0 {
		t.Fatalf("applications = %d, want 0", n)
	}
	if cp.abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (stale-epoch ack must close the pending action)", cp.abandoned)
	}
	if _, ok := cp.pending[p.id]; ok {
		t.Fatal("fenced-off action still pending controller-side")
	}
}

// TestCtrlDuplicateDeliverySuppressed is the exactly-once-application
// property under at-least-once delivery: a duplicate of an APPLIED
// action re-acks the stored result without reapplying — even when the
// duplicate arrives after the agent's epoch has advanced past the one
// the request was stamped with (idempotency is checked before the
// fence; the work happened once, under an epoch valid at the time).
func TestCtrlDuplicateDeliverySuppressed(t *testing.T) {
	_, cp, net := newCtrlTestbed(t, 1)
	cp.ensureAgents()
	a := cp.agents["srv1"]
	acks := ackRecorder(net)

	applications := 0
	req := actionReq{id: 3, epoch: 0, label: "grow", apply: func() any {
		applications++
		return "grown"
	}}

	net.Send(CtrlEndpoint, "srv1", req) // original delivery: applies
	net.Send(CtrlEndpoint, "srv1", req) // duplicate: suppressed
	a.lastEpoch = 5                     // the controller's view moves on...
	net.Send(CtrlEndpoint, "srv1", req) // ...but a dup of applied work still re-acks

	if applications != 1 {
		t.Fatalf("apply ran %d times, want exactly once", applications)
	}
	if a.applications[req.id] != 1 {
		t.Fatalf("applications counter = %d, want 1", a.applications[req.id])
	}
	if a.dupSuppressed != 2 {
		t.Fatalf("dupSuppressed = %d, want 2", a.dupSuppressed)
	}
	if a.epochRejections != 0 {
		t.Fatal("a duplicate of applied work was epoch-fenced; dedup must run before the fence")
	}
	if len(*acks) != 3 {
		t.Fatalf("%d acks, want 3 (every delivery acked)", len(*acks))
	}
	for i, ack := range *acks {
		if ack.verdict != ackApplied || ack.res != "grown" {
			t.Fatalf("ack %d = %+v, want the stored applied result every time", i, ack)
		}
	}
}

// TestCtrlLeaseExpiryAutonomy: an agent whose lease expires flips to
// local autonomy, refuses actions with a no-lease ack that is NOT
// cached, and resumes applying after a heartbeat renews the lease.
func TestCtrlLeaseExpiryAutonomy(t *testing.T) {
	_, cp, net := newCtrlTestbed(t, 1)
	cp.ensureAgents()
	a := cp.agents["srv1"]
	acks := ackRecorder(net)

	// Default lease is 3× the 10s interval, granted at attach time.
	a.checkLease(29)
	if a.autonomous {
		t.Fatal("agent went autonomous with a live lease")
	}
	a.checkLease(31)
	if !a.autonomous || a.autonomyEpisodes != 1 {
		t.Fatalf("autonomous = %v episodes = %d after lease expiry, want true/1", a.autonomous, a.autonomyEpisodes)
	}

	applied := 0
	req := actionReq{id: 9, epoch: 0, label: "widen", apply: func() any {
		applied++
		return nil
	}}
	net.Send(CtrlEndpoint, "srv1", req)
	if applied != 0 {
		t.Fatal("autonomous agent applied an action")
	}
	if len(*acks) != 1 || (*acks)[0].verdict != ackNoLease {
		t.Fatalf("acks = %+v, want one no-lease rejection", *acks)
	}
	if len(a.applied) != 0 {
		t.Fatal("no-lease rejection was cached; a post-renewal retry could never apply")
	}

	a.onHeartbeat(hbMsg{seq: 1, epoch: 0})
	if a.autonomous {
		t.Fatal("heartbeat did not end the autonomy episode")
	}
	net.Send(CtrlEndpoint, "srv1", req) // the controller's retransmission
	if applied != 1 {
		t.Fatalf("retry after lease renewal applied %d times, want 1", applied)
	}
	if (*acks)[1].verdict != ackApplied {
		t.Fatalf("retry ack = %+v, want applied", (*acks)[1])
	}
}

// TestCtrlFailureDetectorLifecycle drives a full partition through the
// running controller: reachable → suspect → unreachable (advancing the
// fencing epoch), action invocations refused while dark, engine-side
// autonomy from lease expiry, then heal → reachable with the agent
// learning the advanced epoch from the next heartbeat.
func TestCtrlFailureDetectorLifecycle(t *testing.T) {
	tb, cp, net := newCtrlTestbed(t, 1)
	tb.ctl.Start()

	tb.sim.RunUntil(25)
	if st := cp.FDState("srv1"); st != "reachable" {
		t.Fatalf("FDState = %q on a perfect channel, want reachable", st)
	}

	net.CutBoth(CtrlEndpoint, "srv1")
	tb.sim.RunUntil(55)
	if st := cp.FDState("srv1"); st != "suspect" {
		t.Fatalf("FDState = %q after 2 missed acks, want suspect", st)
	}
	tb.sim.RunUntil(95)
	if st := cp.FDState("srv1"); st != "unreachable" {
		t.Fatalf("FDState = %q after 3 missed acks, want unreachable", st)
	}
	if cp.Epoch() != 1 {
		t.Fatalf("epoch = %d after an unreachable declaration, want 1", cp.Epoch())
	}
	a := cp.agents["srv1"]
	if !a.autonomous {
		t.Fatal("partitioned agent never entered local autonomy")
	}
	res, outcome := cp.invoke(95, "srv1", "shop", "grow",
		func() any { return "never" }, func(float64, any) {})
	if outcome != invokeRefused || res != nil {
		t.Fatalf("invoke on an unreachable target = (%v, %v), want refused", res, outcome)
	}

	net.HealBoth(CtrlEndpoint, "srv1")
	tb.sim.RunUntil(115)
	if st := cp.FDState("srv1"); st != "reachable" {
		t.Fatalf("FDState = %q after heal, want reachable", st)
	}
	if a.autonomous {
		t.Fatal("agent still autonomous after the heartbeat renewed its lease")
	}
	if a.lastEpoch != 1 {
		t.Fatalf("agent epoch = %d after heal, want 1 (learned from the heartbeat)", a.lastEpoch)
	}
}
