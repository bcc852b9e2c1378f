package experiments

import (
	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/sim"
)

// The perfbench shim. perfbench (a module of its own, which must keep
// building unchanged) drives this package through two setters and three
// package-level scenarios; they act on defaultOptions. Nothing else
// calls them: every other caller passes its own Options.

// defaultOptions is what the shim's scenarios run with. It is the
// package's only mutable state, and only perfbench writes it.
var defaultOptions Options

// SetObsHooks sets the default Options' Observer and OnTestbed.
func SetObsHooks(o obs.Observer, onTestbed func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine)) {
	defaultOptions.Observer, defaultOptions.OnTestbed = o, onTestbed
}

// SetArrivalHook sets the default Options' OnArrival.
func SetArrivalHook(fn func(cohort string, t float64, class metrics.ClassID)) {
	defaultOptions.OnArrival = fn
}

// Figure3 runs Options.Figure3 with the default Options.
func Figure3(seed uint64) *Figure3Result { return defaultOptions.Figure3(seed) }

// OLAPAntagonist runs Options.OLAPAntagonist with the default Options.
func OLAPAntagonist(seed uint64) (*TemporalResult, error) { return defaultOptions.OLAPAntagonist(seed) }

// Overload runs Options.Overload with the default Options.
func Overload(seed uint64) (*OverloadResult, error) { return defaultOptions.Overload(seed) }
