// Package ctrlnet is the simulated control-plane transport: a
// message-passing network between the controller and the engines, built
// on the discrete-event core (simcore.KindMessage events) so every
// delivery, loss, duplication and reordering is a deterministic function
// of the scenario seed.
//
// # Link model
//
// Endpoints are named mailboxes with a handler. Each directional link
// (from, to) carries a Config: base one-way latency, uniform jitter,
// drop probability, duplication probability, and a reorder term that
// occasionally adds a large extra delay so a later message can overtake
// an earlier one. A link with the zero Config is PERFECT: Send delivers
// inline, synchronously, within the caller's stack — no event is
// scheduled and no random draw is made. That inline fast path is the
// controller's default channel (DESIGN.md §11); an imperfect link
// schedules a KindMessage event per delivery instead.
//
// # Partitions
//
// Cut severs a directional link: subsequent sends are dropped at the
// source and every message already in flight on that link is cancelled
// (a partition does not deliver the packets it ate). CutBoth/Isolate
// build symmetric partitions and full isolation from the directional
// primitive; Heal restores a link. Partition state overrides link
// quality — a cut perfect link drops like a cut lossy one.
//
// # Determinism and concurrency
//
// All randomness comes from one seeded RNG owned by the Network,
// deliberately NOT forked from the simulation engine's stream: building
// a Network must not perturb workload randomness, so a controller's
// default perfect-channel network and the seeded one a testbed replaces
// it with leave the workload stream alike. Like everything in virtual
// time the Network is single-owner — calls happen on the simulation
// goroutine only.
package ctrlnet

import (
	"fmt"

	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
)

// Config shapes one directional link.
type Config struct {
	// Latency is the base one-way delivery delay in virtual seconds.
	Latency float64
	// Jitter adds a uniform [0, Jitter) term to each delivery.
	Jitter float64
	// Drop is the probability a message is lost in transit.
	Drop float64
	// Dup is the probability a message is delivered twice (the copy
	// takes an independent latency+jitter draw, so duplicates reorder).
	Dup float64
	// ReorderRate is the probability a message takes an extra
	// ReorderDelay-bounded detour, letting later sends overtake it.
	ReorderRate float64
	// ReorderDelay bounds the uniform extra delay of a detoured message.
	ReorderDelay float64
}

// Perfect reports whether the link delivers inline: no latency, no
// jitter, no loss, no duplication, no reordering.
func (c Config) Perfect() bool {
	return c.Latency <= 0 && c.Jitter <= 0 && c.Drop <= 0 && c.Dup <= 0 &&
		(c.ReorderRate <= 0 || c.ReorderDelay <= 0)
}

// Handler consumes a delivered message at an endpoint.
type Handler func(from string, payload any)

// Stats counts the network's lifetime traffic. PartitionDropped and
// PartitionCancelled split partition losses (refused at send / eaten in
// flight) out of the probabilistic Dropped count.
type Stats struct {
	Sent               uint64
	Delivered          uint64
	Dropped            uint64
	Duplicated         uint64
	PartitionDropped   uint64
	PartitionCancelled uint64
	InlineDelivered    uint64
}

type linkKey struct{ from, to string }

// inflight is one scheduled delivery, tracked so a partition can cancel
// it. Entries are removed when the delivery fires.
type inflight struct {
	ev   *sim.Event
	done bool
}

type endpoint struct {
	name    string
	handler Handler
}

// Network is the control-plane message fabric. See the package comment
// for the link, partition and determinism model.
type Network struct {
	sim      *sim.Engine
	rng      *sim.RNG
	defaults Config
	links    map[linkKey]Config
	cuts     map[linkKey]bool
	eps      map[string]*endpoint
	flights  map[linkKey][]*inflight
	stats    Stats
}

// New returns a network scheduling deliveries on s. The seed feeds the
// network's private RNG; it is deliberately independent of s's stream
// (see the package comment).
func New(s *sim.Engine, seed uint64) *Network {
	if s == nil {
		panic("ctrlnet: nil simulation engine")
	}
	return &Network{
		sim:     s,
		rng:     sim.NewRNG(seed),
		links:   make(map[linkKey]Config),
		cuts:    make(map[linkKey]bool),
		eps:     make(map[string]*endpoint),
		flights: make(map[linkKey][]*inflight),
	}
}

// SetDefaults installs the Config used by every link without an explicit
// override. Affects subsequent sends only.
func (n *Network) SetDefaults(cfg Config) { n.defaults = cfg }

// Defaults returns the current default link Config.
func (n *Network) Defaults() Config { return n.defaults }

// SetLink overrides the directional link from→to. Affects subsequent
// sends only.
func (n *Network) SetLink(from, to string, cfg Config) {
	n.links[linkKey{from, to}] = cfg
}

// ClearLink removes a directional override, reverting from→to to the
// defaults.
func (n *Network) ClearLink(from, to string) {
	delete(n.links, linkKey{from, to})
}

// Endpoint registers (or re-registers) the named mailbox. Registering an
// existing name replaces its handler — a decommissioned-then-
// reprovisioned server keeps one mailbox identity.
func (n *Network) Endpoint(name string, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("ctrlnet: endpoint %q needs a handler", name))
	}
	n.eps[name] = &endpoint{name: name, handler: h}
}

// HasEndpoint reports whether name is registered.
func (n *Network) HasEndpoint(name string) bool { return n.eps[name] != nil }

// Stats returns the lifetime traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Cut severs the directional link from→to: subsequent sends are dropped
// at the source and messages already in flight are cancelled.
func (n *Network) Cut(from, to string) {
	k := linkKey{from, to}
	if n.cuts[k] {
		return
	}
	n.cuts[k] = true
	for _, f := range n.flights[k] {
		if !f.done {
			f.done = true
			f.ev.Cancel()
			n.stats.PartitionCancelled++
		}
	}
	n.flights[k] = nil
}

// Heal restores the directional link from→to.
func (n *Network) Heal(from, to string) { delete(n.cuts, linkKey{from, to}) }

// CutBoth severs both directions between a and b.
func (n *Network) CutBoth(a, b string) {
	n.Cut(a, b)
	n.Cut(b, a)
}

// HealBoth restores both directions between a and b.
func (n *Network) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// Isolate cuts every link to and from name — a full partition of one
// endpoint. Links are enumerated over registered endpoints.
func (n *Network) Isolate(name string) {
	for other := range n.eps {
		if other != name {
			n.CutBoth(name, other)
		}
	}
}

// Restore heals every link to and from name.
func (n *Network) Restore(name string) {
	for other := range n.eps {
		if other != name {
			n.HealBoth(name, other)
		}
	}
}

// IsCut reports whether the directional link from→to is severed.
func (n *Network) IsCut(from, to string) bool { return n.cuts[linkKey{from, to}] }

func (n *Network) linkConfig(from, to string) Config {
	if cfg, ok := n.links[linkKey{from, to}]; ok {
		return cfg
	}
	return n.defaults
}

// Send transmits payload from→to and reports whether it was (or will
// be) delivered at all — false only when the link is cut or the drop
// draw ate it; the sender cannot observe which. On a perfect, uncut
// link delivery happens inline before Send returns: the handler (and
// anything it sends in reply) runs synchronously, which is what makes
// request/ack RPC over a perfect channel indistinguishable from a
// direct call.
func (n *Network) Send(from, to string, payload any) bool {
	n.stats.Sent++
	k := linkKey{from, to}
	if n.cuts[k] {
		n.stats.PartitionDropped++
		return false
	}
	ep := n.eps[to]
	if ep == nil {
		// An unregistered destination behaves like a black hole, not a
		// programming error: agents come and go with provisioning.
		n.stats.Dropped++
		return false
	}
	cfg := n.linkConfig(from, to)
	if cfg.Perfect() {
		n.stats.InlineDelivered++
		n.stats.Delivered++
		ep.handler(from, payload)
		return true
	}
	if cfg.Drop > 0 && n.rng.Float64() < cfg.Drop {
		n.stats.Dropped++
		return false
	}
	n.schedule(k, ep, from, payload, cfg)
	if cfg.Dup > 0 && n.rng.Float64() < cfg.Dup {
		n.stats.Duplicated++
		n.schedule(k, ep, from, payload, cfg)
	}
	return true
}

// schedule queues one delivery of payload on link k with an independent
// latency draw.
func (n *Network) schedule(k linkKey, ep *endpoint, from string, payload any, cfg Config) {
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += n.rng.Uniform(0, cfg.Jitter)
	}
	if cfg.ReorderRate > 0 && cfg.ReorderDelay > 0 && n.rng.Float64() < cfg.ReorderRate {
		delay += n.rng.Uniform(0, cfg.ReorderDelay)
	}
	if delay < 0 {
		delay = 0
	}
	f := &inflight{}
	f.ev = n.sim.ScheduleKind(simcore.KindMessage, delay, func() {
		if f.done {
			return
		}
		f.done = true
		n.stats.Delivered++
		ep.handler(from, payload)
	})
	n.flights[k] = append(n.flights[k], f)
	// Prune fired/cancelled entries lazily so a long lossy run does not
	// accumulate a flight list proportional to its message count.
	if len(n.flights[k]) >= 32 {
		live := n.flights[k][:0]
		for _, fl := range n.flights[k] {
			if !fl.done {
				live = append(live, fl)
			}
		}
		n.flights[k] = live
	}
}
