package experiments

import (
	"testing"
)

// assertCtrlInvariants checks the protocol-safety claims every
// control-channel chaos scenario makes, regardless of the injected
// fault: clients never see an error (the data plane does not depend on
// the control channel), no action is ever applied more than once (the
// at-least-once channel is made exactly-once by the agents' dedup
// cache), and after the channel heals the cluster runs a healthy tail —
// consecutive SLA-met intervals right through the end of the run.
func assertCtrlInvariants(t *testing.T, name string, r *ChaosResult) {
	t.Helper()
	t.Logf("%s seed=%d: ctrl=%+v sent=%d dropped=%d dup=%d unreachableEvents=%d autonomyEvents=%d degraded=%d streak=%d prov=%d shrink=%d",
		name, r.Seed, r.Ctrl, r.CtrlSent, r.CtrlDropped, r.CtrlDuplicated,
		r.CtrlUnreachableEvents, r.CtrlAutonomyEvents, r.DegradedEvents, r.FinalMetStreak, r.Provisions, r.Shrinks)
	if r.ClientErrors != 0 {
		t.Errorf("%s seed=%d: %d client errors, want 0", name, r.Seed, r.ClientErrors)
	}
	if r.Ctrl.MaxApplications > 1 {
		t.Errorf("%s seed=%d: an action was applied %d times; duplicate delivery leaked through the dedup cache",
			name, r.Seed, r.Ctrl.MaxApplications)
	}
	if r.FinalMetStreak < 3 {
		t.Errorf("%s seed=%d: final SLA-met streak %d < 3; cluster did not recover after the heal",
			name, r.Seed, r.FinalMetStreak)
	}
	if r.CtrlSent == 0 {
		t.Errorf("%s seed=%d: no control messages sent; the scenario did not exercise the channel", name, r.Seed)
	}
}

func TestChaosCtrlPartition(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("control-channel chaos runs minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		r, err := Options{}.ChaosCtrlPartition(seed)
		if err != nil {
			t.Fatal(err)
		}
		assertCtrlInvariants(t, "ctrl-partition", r)
		// A full controller partition silences every heartbeat ack: the
		// failure detector must declare the fleet unreachable (narrated),
		// fence the epoch, and suspend diagnosis for the dark servers.
		if r.CtrlUnreachableEvents == 0 {
			t.Errorf("ctrl-partition seed=%d: failure detector never declared a server unreachable", seed)
		}
		if r.Ctrl.Epoch == 0 {
			t.Errorf("ctrl-partition seed=%d: epoch never advanced on an unreachable declaration", seed)
		}
		// 150 s of silence far exceeds the 30 s lease: every engine agent
		// must fall back to local autonomy, and heal back out of it.
		if r.Ctrl.AutonomyEpisodes == 0 {
			t.Errorf("ctrl-partition seed=%d: no engine entered local autonomy during the partition", seed)
		}
		if r.CtrlDropped == 0 {
			t.Errorf("ctrl-partition seed=%d: partition dropped no messages", seed)
		}
	})
}

func TestChaosCtrlAsymPartition(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("control-channel chaos runs minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		r, err := Options{}.ChaosCtrlAsymPartition(seed)
		if err != nil {
			t.Fatal(err)
		}
		assertCtrlInvariants(t, "ctrl-asym", r)
		// The half-open link: the controller hears nothing from the target
		// and must declare it unreachable from silence alone...
		if r.CtrlUnreachableEvents == 0 {
			t.Errorf("ctrl-asym seed=%d: silence on the return path never produced an unreachable declaration", seed)
		}
		// ...while the engine, still receiving heartbeats, keeps its lease
		// renewed and never enters autonomy.
		if r.Ctrl.AutonomyEpisodes != 0 {
			t.Errorf("ctrl-asym seed=%d: %d autonomy episodes; heartbeats still reached the engine, its lease must not lapse",
				seed, r.Ctrl.AutonomyEpisodes)
		}
	})
}

func TestChaosCtrlLossy(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("control-channel chaos runs minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		r, err := Options{}.ChaosCtrlLossy(seed)
		if err != nil {
			t.Fatal(err)
		}
		assertCtrlInvariants(t, "ctrl-lossy", r)
		// 30% loss with actions in flight: ack timeouts must retransmit.
		if r.Ctrl.Retries == 0 {
			t.Errorf("ctrl-lossy seed=%d: no action was ever retried over the lossy channel", seed)
		}
		// 15% duplication: the channel must actually have duplicated
		// deliveries for the dedup cache to be under test.
		if r.CtrlDuplicated == 0 {
			t.Errorf("ctrl-lossy seed=%d: channel never duplicated a message", seed)
		}
		if r.CtrlDropped == 0 {
			t.Errorf("ctrl-lossy seed=%d: channel never dropped a message", seed)
		}
		// The overload pulse forces retuning actions through the lossy
		// window; at least one must have been applied, exactly once.
		if r.Ctrl.MaxApplications != 1 {
			t.Errorf("ctrl-lossy seed=%d: max applications per action = %d, want exactly 1",
				seed, r.Ctrl.MaxApplications)
		}
	})
}

func TestChaosCtrlDelayedSnapshots(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("control-channel chaos runs minutes of virtual time")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		r, err := Options{}.ChaosCtrlDelayedSnapshots(seed)
		if err != nil {
			t.Fatal(err)
		}
		assertCtrlInvariants(t, "ctrl-delayed", r)
		// Reports arrive but describe closed intervals: the staleness
		// guard must reject them, narrated as degraded analysis.
		if r.DegradedEvents == 0 {
			t.Errorf("ctrl-delayed seed=%d: stale reports were never narrated as degraded analysis", seed)
		}
		// Heartbeat acks are late but within the detector's patience: the
		// failure detector must NOT declare anyone unreachable — staleness
		// and liveness are separate judgements.
		if r.CtrlUnreachableEvents != 0 {
			t.Errorf("ctrl-delayed seed=%d: %d unreachable declarations; delay within patience must not look like death",
				seed, r.CtrlUnreachableEvents)
		}
		if r.Ctrl.AutonomyEpisodes != 0 {
			t.Errorf("ctrl-delayed seed=%d: %d autonomy episodes; heartbeats were delivered, leases must hold",
				seed, r.Ctrl.AutonomyEpisodes)
		}
	})
}
