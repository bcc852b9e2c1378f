package main

// The resilience suite: every chaos, adversarial and pathological-
// policy scenario reduced to its scorecard across a pinned seed set,
// printed as a table, optionally persisted as a versioned strict-schema
// RESIL_*.json document (atomic write, no silent overwrite — the same
// discipline as BENCH_*.json), and optionally asserted for CI:
//
//	benchrunner -resil                                   # full sweep, table
//	benchrunner -resil -out RESIL_0.json                 # persist scorecards
//	benchrunner -resil -resil.scenarios clock-skew -assert  # CI gate
import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"outlierlb/internal/experiments"
	"outlierlb/internal/resil"
)

// parseSeeds turns "1,2,3" into seeds; empty means the pinned default.
func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return []uint64{1, 2, 3}, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runResil executes the resilience sweep over the registry's scored
// entries. filter selects them by canonical name or alias ("" or "all"
// runs every one); assert turns the run into a gate: every scorecard
// must be detected, mitigated where the entry wants it, and recovered
// within assertBudget (virtual seconds), and the guard scenarios must
// additionally show a watchdog rollback.
func runResil(filter, seedList, out string, force bool, assert bool, assertBudget float64) {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: -resil.seeds:", err)
		os.Exit(2)
	}
	var scored []experiments.Scenario
	var names []string
	for _, sc := range experiments.Scenarios() {
		if sc.Scored {
			scored = append(scored, sc)
			names = append(names, sc.Name)
		}
	}
	want := map[string]bool{}
	if filter != "" && filter != "all" {
		for _, n := range strings.Split(filter, ",") {
			sc, ok := experiments.Lookup(strings.TrimSpace(n))
			if !ok || !sc.Scored {
				fmt.Fprintf(os.Stderr, "benchrunner: unknown -resil.scenarios %q (want %s)\n",
					n, strings.Join(names, "|"))
				os.Exit(2)
			}
			want[sc.Name] = true
		}
	}

	doc := resil.NewDoc()
	fmt.Printf("%-34s %5s %8s %8s %8s %8s %7s %7s %7s\n",
		"scenario", "seed", "detect", "mitigate", "recover", "revert", "t_det", "t_mit", "t_rec")
	failures := 0
	for _, sc := range scored {
		if len(want) > 0 && !want[sc.Name] {
			continue
		}
		for _, seed := range seeds {
			res, err := sc.Run(experiments.Options{}, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %s seed=%d: %v\n", sc.Name, seed, err)
				os.Exit(1)
			}
			card := experiments.ScorecardOf(res)
			doc.Scorecards = append(doc.Scorecards, card)
			fmt.Printf("%-34s %5d %8v %8v %8v %8v %7.0f %7.0f %7.0f\n",
				sc.Name, seed, card.Detected, card.Mitigated, card.Recovered, card.Reverted,
				card.TimeToDetect, card.TimeToMitigate, card.TimeToRecover)
			if !assert {
				continue
			}
			verdict := func(cond bool, msg string) {
				if !cond {
					failures++
					fmt.Fprintf(os.Stderr, "benchrunner: ASSERT %s seed=%d: %s\n", sc.Name, seed, msg)
				}
			}
			verdict(card.Detected, "fault not detected")
			if sc.WantMitigate {
				verdict(card.Mitigated, "fault not mitigated")
			}
			verdict(card.Recovered && card.TimeToRecover >= 0 && card.TimeToRecover <= assertBudget,
				fmt.Sprintf("not recovered within %.0fs (recovered=%v t_rec=%.0fs)",
					assertBudget, card.Recovered, card.TimeToRecover))
			if sc.WantRevert {
				verdict(card.Reverted, "watchdog never rolled back the pathological action")
			}
		}
	}

	if out != "" {
		if err := resil.WriteFile(out, doc, force); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d scorecards to %s\n", len(doc.Scorecards), out)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: %d scorecard assertion(s) failed\n", failures)
		os.Exit(1)
	}
	if assert {
		fmt.Printf("all %d scorecards pass: detected, mitigated, recovered within %.0fs\n",
			len(doc.Scorecards), assertBudget)
	}
}
