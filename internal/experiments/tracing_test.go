package experiments

import (
	"fmt"
	"math"
	"testing"

	"outlierlb/internal/obs"
)

// withTracer runs one scenario with a full-sampling tracer in its
// Options (as the tools' -trace.sample does) and hands back the retained
// traces plus lifetime stats.
func withTracer(ring int, run func(o Options)) ([]*obs.Span, obs.TraceStats) {
	tr := obs.NewTracer(1, 1.0, ring)
	run(Options{Tracer: tr})
	return tr.Recent(0), tr.Stats()
}

// forSeeds runs fn as one parallel subtest "seed=N" per seed.
func forSeeds(t *testing.T, seeds []uint64, fn func(t *testing.T, seed uint64)) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fn(t, seed)
		})
	}
}

// assertWellFormed validates every retained trace and checks the
// structural contract the tracing layer promises: attempt and
// retry-wait spans are always direct children of the query root (retry
// hops are siblings, never nested), and exec spans live under attempts.
func assertWellFormed(t *testing.T, name string, traces []*obs.Span) (multiAttempt int) {
	t.Helper()
	if len(traces) == 0 {
		t.Fatalf("%s: no traces retained", name)
	}
	for _, root := range traces {
		if err := obs.Validate(root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		attempts := 0
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			switch s.Kind {
			case obs.SpanAttempt:
				attempts++
				if s.Parent != root.ID {
					t.Fatalf("%s trace %d: attempt span %d nested under span %d, not the root",
						name, root.Trace, s.ID, s.Parent)
				}
			case obs.SpanRetryWait:
				if s.Parent != root.ID {
					t.Fatalf("%s trace %d: retry-wait span %d nested under span %d, not the root",
						name, root.Trace, s.ID, s.Parent)
				}
			case obs.SpanExec:
				if p := findSpan(root, s.Parent); p == nil || p.Kind != obs.SpanAttempt {
					t.Fatalf("%s trace %d: exec span %d not under an attempt", name, root.Trace, s.ID)
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(root)
		if attempts == 0 && root.Err == "" {
			t.Fatalf("%s trace %d: successful query with no attempt span", name, root.Trace)
		}
		if attempts > 1 {
			multiAttempt++
		}
	}
	return multiAttempt
}

func findSpan(s *obs.Span, id obs.SpanID) *obs.Span {
	if s.ID == id {
		return s
	}
	for _, c := range s.Children {
		if found := findSpan(c, id); found != nil {
			return found
		}
	}
	return nil
}

// TestTracingChaosWellFormed runs the gray-failure chaos drill under
// three seeds with every query traced: all span trees must validate
// (resolvable parents, no orphans) and the retries the breaker provokes
// must show up as sibling attempt spans under the query roots.
func TestTracingChaosWellFormed(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos tracing sweep is slow; run without -short")
	}
	forSeeds(t, chaosSeeds, func(t *testing.T, seed uint64) {
		traces, stats := withTracer(2048, func(o Options) {
			r, err := o.ChaosGrayFailure(seed)
			if err != nil {
				t.Fatal(err)
			}
			if r.Retries == 0 {
				t.Fatalf("seed=%d: gray failure provoked no retries", seed)
			}
		})
		if stats.Sampled != stats.Started {
			t.Errorf("seed=%d: rate 1.0 sampled %d of %d queries", seed, stats.Sampled, stats.Started)
		}
		multi := assertWellFormed(t, "gray", traces)
		if multi == 0 {
			t.Errorf("seed=%d: no retained trace shows a retry hop (sibling attempt spans)", seed)
		}
	})
}

// TestTracingOverloadWellFormed traces the overload brownout: every
// tree still validates under admission pressure, and the roots carry
// the gate's verdict events. (The ring retains the run's final queries,
// which post-readmission are all admitted — the rejected-verdict path
// is unit-tested in internal/admission.)
func TestTracingOverloadWellFormed(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("overload tracing sweep is slow; run without -short")
	}
	traces, _ := withTracer(4096, func(o Options) {
		r, err := o.Overload(chaosSeeds[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.ShedInteractions == 0 {
			t.Fatal("overload shed nothing; the scenario lost its bite")
		}
	})
	assertWellFormed(t, "overload", traces)
	admitted := 0
	for _, root := range traces {
		for _, e := range root.Events {
			if e.Kind == obs.EventAdmitted {
				admitted++
				break
			}
		}
	}
	if admitted == 0 {
		t.Error("no retained trace carries the admission gate's admitted verdict event")
	}
}

// TestTracingFigure3PhasePartition is the acceptance check: a
// fig3-style run at sample rate 1.0, where every trace's queue, service
// and retry phases must sum to its root duration within 1%.
func TestTracingFigure3PhasePartition(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("figure-3 tracing run is slow; run without -short")
	}
	traces, stats := withTracer(1024, func(o Options) { o.Figure3(1) })
	if stats.Sampled != stats.Started || stats.Started == 0 {
		t.Fatalf("rate 1.0 sampled %d of %d queries", stats.Sampled, stats.Started)
	}
	assertWellFormed(t, "fig3", traces)
	for _, root := range traces {
		total := root.End - root.Start
		p := obs.Breakdown(root)
		sum := p.Queue + p.Service + p.Retry
		if tol := 0.01 * total; math.Abs(sum-total) > tol+1e-12 {
			t.Fatalf("trace %d: phases %.6f+%.6f+%.6f = %.6f vs total %.6f (off by more than 1%%)",
				root.Trace, p.Queue, p.Service, p.Retry, sum, total)
		}
		if total > 0 && p.Service <= 0 {
			t.Fatalf("trace %d: %.4fs query with no service time", root.Trace, total)
		}
	}
}

// TestTracingGoldensUntouched proves attaching a tracer cannot perturb
// the simulation: the figure-3 latency series with tracing on must be
// bit-identical to the untraced run (sampling hashes a private seed,
// never the simulation RNG).
func TestTracingGoldensUntouched(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("double figure-3 run is slow; run without -short")
	}
	base := Options{}.Figure3(1)
	var traced *Figure3Result
	withTracer(64, func(o Options) { traced = o.Figure3(1) })
	if len(base.Latency) != len(traced.Latency) {
		t.Fatalf("series length changed: %d vs %d", len(base.Latency), len(traced.Latency))
	}
	for i := range base.Latency {
		if base.Latency[i] != traced.Latency[i] || base.Machines[i] != traced.Machines[i] {
			t.Fatalf("t=%g: tracing perturbed the run: latency %v vs %v, machines %v vs %v",
				base.Times[i], base.Latency[i], traced.Latency[i], base.Machines[i], traced.Machines[i])
		}
	}
}
