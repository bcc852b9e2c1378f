package faults

import (
	"fmt"

	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/obs"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// This file injects control-channel faults: partitions and link
// degradation on the message-passing control plane (internal/ctrlnet).
// Like every other fault they are scheduled virtual-time events —
// injected, narrated, and (optionally) cleared.

// ControllerPartition cuts every link to and from endpoint (typically
// the controller) from at until clearAt: no heartbeats, no snapshot
// reports, no actions in either direction. clearAt ≤ at leaves the
// partition permanent. In-flight messages on the cut links are lost.
func (in *Injector) ControllerPartition(net *ctrlnet.Network, endpoint string, at, clearAt float64) {
	in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(at), func() {
		net.Isolate(endpoint)
		in.emit(obs.EventFaultInjected, endpoint,
			"control partition: endpoint isolated in both directions", nil)
	})
	if clearAt > at {
		in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(clearAt), func() {
			net.Restore(endpoint)
			in.emit(obs.EventFaultCleared, endpoint,
				"control partition healed: endpoint restored", nil)
		})
	}
}

// AsymmetricPartition cuts only the from→to direction from at until
// clearAt: messages from `from` vanish while the reverse direction
// keeps working — the classic half-open failure where one side believes
// the link is healthy. clearAt ≤ at leaves the cut permanent.
func (in *Injector) AsymmetricPartition(net *ctrlnet.Network, from, to string, at, clearAt float64) {
	in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(at), func() {
		net.Cut(from, to)
		in.emit(obs.EventFaultInjected, from,
			fmt.Sprintf("asymmetric partition: %s→%s cut (reverse direction intact)", from, to), nil)
	})
	if clearAt > at {
		in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(clearAt), func() {
			net.Heal(from, to)
			in.emit(obs.EventFaultCleared, from,
				fmt.Sprintf("asymmetric partition healed: %s→%s restored", from, to), nil)
		})
	}
}

// DegradedLink overrides one directed link's characteristics with cfg
// from at until clearAt, then removes the override (the link falls back
// to the network defaults). clearAt ≤ at leaves the override permanent.
func (in *Injector) DegradedLink(net *ctrlnet.Network, from, to string, cfg ctrlnet.Config, at, clearAt float64) {
	in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(at), func() {
		net.SetLink(from, to, cfg)
		in.emit(obs.EventFaultInjected, from,
			fmt.Sprintf("control link %s→%s degraded: drop %.0f%%, latency %.2gs±%.2gs",
				from, to, cfg.Drop*100, cfg.Latency, cfg.Jitter), nil)
	})
	if clearAt > at {
		in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(clearAt), func() {
			net.ClearLink(from, to)
			in.emit(obs.EventFaultCleared, from,
				fmt.Sprintf("control link %s→%s restored", from, to), nil)
		})
	}
}

// DegradedChannel replaces the network's default link characteristics
// with cfg (loss, duplication, latency, jitter) from at
// until clearAt, then restores the characteristics that were in effect
// when the fault fired. clearAt ≤ at leaves the degradation permanent.
func (in *Injector) DegradedChannel(net *ctrlnet.Network, cfg ctrlnet.Config, at, clearAt float64) {
	var prior ctrlnet.Config
	in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(at), func() {
		prior = net.Defaults()
		net.SetDefaults(cfg)
		in.emit(obs.EventFaultInjected, "",
			fmt.Sprintf("control channel degraded: drop %.0f%%, dup %.0f%%, latency %.2gs±%.2gs",
				cfg.Drop*100, cfg.Dup*100, cfg.Latency, cfg.Jitter), nil)
	})
	if clearAt > at {
		in.sim.ScheduleKindAt(simcore.KindFault, sim.Time(clearAt), func() {
			net.SetDefaults(prior)
			in.emit(obs.EventFaultCleared, "",
				"control channel degradation cleared: link characteristics restored", nil)
		})
	}
}
