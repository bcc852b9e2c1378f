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

// TestCtrlNetOffBitIdentical proves the message-passing control plane
// over a perfect channel is purely an implementation switch: the same
// diagnosis scenario with the control plane disabled (the historical
// direct-call path) must produce byte-identical metrics snapshots and
// span trees. Inline delivery on perfect links — no events, no RNG
// draws, no extra spans — is what makes this hold; the same
// transition-flag discipline as -sim.eventcore.
func TestCtrlNetOffBitIdentical(t *testing.T) {
	seeds := eventCoreSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		onRes, onSpans := fig4Fingerprint(t, seed)

		SetCtrlNet(false)
		offRes, offSpans := fig4Fingerprint(t, seed)
		SetCtrlNet(true)

		if string(onRes) != string(offRes) {
			t.Errorf("seed=%d: control plane on vs off diverges:\n%s\nvs\n%s", seed, onRes, offRes)
		}
		if string(onSpans) != string(offSpans) {
			t.Errorf("seed=%d: span trees diverge between control plane on and off", seed)
		}
	}
}

// TestCtrlNetFigure3Identical extends the on/off identity to the full
// provisioning figure: replica allocation over the whole run must be
// unchanged by routing every controller↔engine interaction through the
// perfect channel.
func TestCtrlNetFigure3Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("double figure-3 run is slow; run without -short")
	}
	on := Figure3(1)
	SetCtrlNet(false)
	off := Figure3(1)
	SetCtrlNet(true)
	if len(on.Latency) != len(off.Latency) {
		t.Fatalf("series length diverges: %d vs %d", len(on.Latency), len(off.Latency))
	}
	for i := range on.Latency {
		if on.Latency[i] != off.Latency[i] || on.Machines[i] != off.Machines[i] || on.Throughput[i] != off.Throughput[i] {
			t.Fatalf("t=%g: control plane changed the run: latency %v vs %v, machines %d vs %d",
				on.Times[i], on.Latency[i], off.Latency[i], on.Machines[i], off.Machines[i])
		}
	}
}

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

// TestCtrlNetMessageTraffic checks which path actually runs: a perfect
// channel delivers every control message inline (no KindMessage events
// on the simulation queue), while a non-perfect channel schedules its
// deliveries as events. Without this, a silently-inline lossy channel
// or a silently-evented perfect channel would invalidate both the chaos
// scenarios and the bit-identity claim.
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
