package experiments

import (
	"slices"
	"testing"
)

// resilSweep is benchrunner -resil's sweep in its order: the scored
// entries must be exactly these, so RESIL documents keep their shape.
var resilSweep = []string{
	"gray-failure", "flapping", "metric-blackout", "byzantine-metrics", "snapshot-corruption", "clock-skew",
	"ctrl-partition", "ctrl-asym-partition", "ctrl-lossy", "ctrl-delayed-snapshots",
	"flash-crowd", "diurnal-shift", "olap-antagonist", "trace-replay-identity",
	"guard-reject-all-admission", "guard-inverted-shed-order",
	"guard-reverse-priority-readmission", "guard-always-busiest-placement",
}

// TestScenarioRegistry checks the registry's names: every canonical
// name and alias selects exactly one entry, and every name the tools
// and ci.sh accepted before the registry existed still resolves.
func TestScenarioRegistry(t *testing.T) {
	t.Parallel()
	owner := map[string]string{}
	var scored []string
	for _, sc := range Scenarios() {
		if sc.Run == nil || sc.Doc == "" || sc.About == "" {
			t.Errorf("%s: entry lacks Run, Doc or About", sc.Name)
		}
		if (sc.WantMitigate || sc.WantRevert) && !sc.Scored {
			t.Errorf("%s: resilience expectations on an unscored entry", sc.Name)
		}
		if sc.Scored {
			scored = append(scored, sc.Name)
		}
		for _, name := range append([]string{sc.Name}, sc.Aliases...) {
			if prev, dup := owner[name]; dup {
				t.Errorf("%q names both %s and %s", name, prev, sc.Name)
			}
			owner[name] = sc.Name
			if got, ok := Lookup(name); !ok || got.Name != sc.Name {
				t.Errorf("Lookup(%q) = %q, %v; want %s", name, got.Name, ok, sc.Name)
			}
		}
	}
	if !slices.Equal(scored, resilSweep) {
		t.Errorf("scored entries %v, want %v", scored, resilSweep)
	}

	accepted := map[string][]string{
		"outlierlb -scenario": {"cpu", "indexdrop", "consolidation", "iocontention", "lockcontention",
			"failure", "grayfailure", "flapping", "blackout", "overload", "byzantine", "snapcorrupt",
			"clockskew", "ctrl-partition", "ctrl-asym", "ctrl-lossy", "ctrl-delayed", "flash-crowd",
			"diurnal-shift", "olap-antagonist", "trace-replay-identity", "guard-reject-all-admission",
			"guard-inverted-shed-order", "guard-reverse-priority-readmission", "guard-always-busiest-placement"},
		// Besides these, -exp takes its chaos and ablations groupings and all.
		"benchrunner -exp": {"fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3", "overload",
			"flash-crowd", "diurnal-shift", "olap-antagonist", "trace-replay"},
		"benchrunner -resil.scenarios": resilSweep,
		"ci.sh": {"cpu", "flash-crowd", "guard-always-busiest-placement", "clock-skew",
			"guard-reject-all-admission", "ctrl-partition", "ctrl-lossy", "trace-replay-identity"},
	}
	for tool, names := range accepted {
		for _, name := range names {
			if _, ok := Lookup(name); !ok {
				t.Errorf("%s %q no longer resolves", tool, name)
			}
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup resolved an unknown name")
	}
}
