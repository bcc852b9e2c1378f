package experiments

// Control-channel chaos scenarios: the fault under test is the control
// plane itself — partitions, half-open links, loss/duplication and
// delay on the message channel between the controller and its engine
// agents — while the data plane keeps serving queries. The robustness
// claims: clients never see an error, no action is ever applied twice
// or from a deposed epoch, diagnosis suspends for servers the
// controller cannot hear, engines fall back to local autonomy (holding
// their last-leased configuration) when the controller goes dark, and
// the cluster recovers fully after the channel heals.

import (
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/faults"
	"outlierlb/internal/workload"
)

// ChaosCtrlPartition isolates the controller endpoint in both
// directions for 150 s: heartbeats, snapshot reports and actions all
// vanish. The failure detector declares every server unreachable (and
// fences the epoch), diagnosis suspends fleet-wide, engine leases
// expire into local autonomy — and after the heal, heartbeats renew the
// leases, the detector recovers, and reporting resumes.
func (o Options) ChaosCtrlPartition(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 350.0, 500.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name: "ctrl-partition",
		inject: func(in *faults.Injector, tb *testbed, _ *cluster.Replica) {
			in.ControllerPartition(tb.net, core.CtrlEndpoint, faultAt, clearAt)
		},
	})
}

// ChaosCtrlAsymPartition cuts only the target server's link TOWARD the
// controller for 150 s — the half-open failure. Heartbeats still reach
// the engine agent (so its lease keeps renewing and it never enters
// autonomy) but acks and snapshot reports are lost: the controller must
// declare the server unreachable from silence alone and suspend its
// diagnosis, while the engine, fully leased, holds steady.
func (o Options) ChaosCtrlAsymPartition(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 350.0, 500.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name: "ctrl-asym-partition",
		inject: func(in *faults.Injector, tb *testbed, target *cluster.Replica) {
			in.AsymmetricPartition(tb.net, target.Server().Name(), core.CtrlEndpoint, faultAt, clearAt)
		},
	})
}

// ChaosCtrlLossy degrades every control link to 30% loss, 15%
// duplication and jittered latency for 200 s while a client pulse
// overloads the cluster — so retuning actions (provision, then brownout
// sheds, then readmissions) must traverse the lossy channel exactly
// when they matter. The at-least-once/apply-exactly-once machinery is
// the subject: ack timeouts retransmit with backoff, duplicate
// deliveries are suppressed by the agents' stored-ack cache, and
// delayed duplicates from a deposed epoch are fenced off.
func (o Options) ChaosCtrlLossy(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 400.0, 600.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name:      "ctrl-lossy",
		admission: true,
		clients:   workload.Pulse(chaosClients, 3*chaosClients, faultAt+20, clearAt-20),
		inject: func(in *faults.Injector, tb *testbed, _ *cluster.Replica) {
			in.DegradedChannel(tb.net, ctrlnet.Config{
				Drop: 0.30, Dup: 0.15, Latency: 0.05, Jitter: 0.10,
			}, faultAt, clearAt)
		},
	})
}

// ChaosCtrlDelayedSnapshots delays only the engines' reports toward the
// controller by 12 s — longer than the 10 s measurement interval — for
// 150 s. Every report is eventually delivered, but by arrival it
// describes an interval the controller already closed: the staleness
// guard must reject it (narrated as degraded analysis) rather than
// diagnose from old data, while heartbeat acks (delayed but within the
// detector's patience) keep the failure detector at reachable.
func (o Options) ChaosCtrlDelayedSnapshots(seed uint64) (*ChaosResult, error) {
	const faultAt, clearAt, endAt = 200.0, 350.0, 500.0
	return o.runChaosOpts(seed, faultAt, clearAt, endAt, chaosOpts{
		name: "ctrl-delayed-snapshots",
		inject: func(in *faults.Injector, tb *testbed, _ *cluster.Replica) {
			for _, srv := range tb.mgr.Servers() {
				in.DegradedLink(tb.net, srv.Name(), core.CtrlEndpoint,
					ctrlnet.Config{Latency: 12}, faultAt, clearAt)
			}
		},
	})
}
