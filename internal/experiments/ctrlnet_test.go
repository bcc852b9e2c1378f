package experiments

import (
	"encoding/json"
	"testing"

	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/workload"
	"outlierlb/internal/workload/tpcw"
)

// TestCtrlLossyDeterminism runs the lossy-channel chaos scenario twice
// per pinned seed and asserts the full results — protocol counters,
// event narration, actions, SLA intervals — are byte-identical as JSON.
// Loss, duplication and jittered delivery all draw from the channel's
// private seeded RNG, so replaying a seed must replay every drop and
// every retransmission exactly.
func TestCtrlLossyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos runs are slow; run without -short")
	}
	for _, seed := range chaosSeeds {
		var fps [2][]byte
		for i := range fps {
			r, err := ChaosCtrlLossy(seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			fps[i] = b
		}
		if string(fps[0]) != string(fps[1]) {
			t.Errorf("seed=%d: lossy-channel runs diverge across identical seeds", seed)
		}
	}
}

// TestCtrlNetMessageTraffic checks which delivery path actually runs: a
// perfect channel delivers every control message inline (no KindMessage
// events on the simulation queue), while a non-perfect channel schedules
// its deliveries as events. Without this, a silently-inline lossy
// channel would invalidate the chaos scenarios, and a silently-evented
// perfect channel would move every output the goldens pin.
func TestCtrlNetMessageTraffic(t *testing.T) {
	// run drives a controller over the channel for a few ticks and
	// returns the channel's stats plus the KindMessage event count on the
	// simulation queue.
	run := func() (ctrlnet.Stats, uint64) {
		tb := newTestbed(1, 2, PoolPages, core.Config{Interval: 10})
		app := tpcw.New(tb.sim.RNG().Fork(), tpcw.Options{})
		sched := tb.startApp(app)
		em := tb.emulate(sched, tpcw.Mix(), 1.0, workload.Constant(30))
		em.Start()
		tb.sim.ScheduleKind(simcore.KindControlAction, 60, tb.ctl.Start)
		tb.sim.RunUntil(sim.Time(200))
		em.Stop()
		return tb.net.Stats(), tb.sim.QueueStats().PerKind[simcore.KindMessage]
	}

	ns, events := run()
	if ns.Sent == 0 || ns.InlineDelivered == 0 {
		t.Errorf("perfect channel carried no inline traffic (sent=%d inline=%d); the control plane is not routed through it",
			ns.Sent, ns.InlineDelivered)
	}
	if events != 0 {
		t.Errorf("perfect channel scheduled %d KindMessage events; inline delivery is broken (and with it bit-identity)", events)
	}

	SetCtrlLink(ctrlnet.Config{Latency: 0.01})
	t.Cleanup(func() { SetCtrlLink(ctrlnet.Config{}) })
	ns, events = run()
	if events == 0 || ns.InlineDelivered != 0 {
		t.Errorf("latency-bearing channel: %d KindMessage events, %d inline deliveries; control traffic is not going over the network",
			events, ns.InlineDelivered)
	}
}
