package experiments

import (
	"encoding/json"
	"testing"

	"outlierlb/internal/obs"
	"outlierlb/internal/wltemporal"
)

// temporalSeeds are the pinned seeds of the temporal-scenario sweep;
// short mode runs the first only.
var temporalSeeds = []uint64{1, 2, 3}

func shortSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return temporalSeeds[:1]
	}
	return temporalSeeds
}

// TestTemporalScenarios asserts the three generator scenarios across
// the pinned seeds: the surge is noticed (detected), visibly acted on
// (mitigated), the run returns to SLA afterwards (recovered), and no
// client ever sees an error.
func TestTemporalScenarios(t *testing.T) {
	t.Parallel()
	scenarios := []struct {
		name string
		run  func(seed uint64) (*TemporalResult, error)
		// wantSurge asserts the surge window's latency visibly exceeds
		// baseline. Left false for diurnal-shift: provisioning catches
		// the peak so quickly that the window average stays near
		// baseline, which is the desired outcome, not a missing surge.
		wantSurge bool
	}{
		{"flash-crowd", Options{}.FlashCrowd, true},
		{"diurnal-shift", Options{}.DiurnalShift, false},
		{"olap-antagonist", Options{}.OLAPAntagonist, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			forSeeds(t, shortSeeds(t), func(t *testing.T, seed uint64) {
				res, err := sc.run(seed)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", sc.name, seed, err)
				}
				card := res.Scorecard
				if !card.Detected {
					t.Errorf("%s seed=%d: surge not detected", sc.name, seed)
				}
				if !card.Mitigated {
					t.Errorf("%s seed=%d: surge not mitigated", sc.name, seed)
				}
				if !card.Recovered {
					t.Errorf("%s seed=%d: never recovered after the surge cleared", sc.name, seed)
				}
				if res.ClientErrors != 0 {
					t.Errorf("%s seed=%d: %d client errors", sc.name, seed, res.ClientErrors)
				}
				if res.Offered == 0 {
					t.Errorf("%s seed=%d: load source offered nothing", sc.name, seed)
				}
				if sc.wantSurge && res.SurgeLatency <= res.BaselineLatency {
					t.Errorf("%s seed=%d: surge latency %.3f not above baseline %.3f — the pattern never bit",
						sc.name, seed, res.SurgeLatency, res.BaselineLatency)
				}
			})
		})
	}
}

// TestTraceReplayIdentityScenario runs the record→replay scenario,
// which errors internally on any interval or action divergence.
func TestTraceReplayIdentityScenario(t *testing.T) {
	t.Parallel()
	forSeeds(t, shortSeeds(t), func(t *testing.T, seed uint64) {
		res, err := Options{}.TraceReplayIdentity(seed)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !res.Scorecard.Detected || !res.Scorecard.Mitigated || !res.Scorecard.Recovered {
			t.Errorf("seed=%d: replayed scorecard incomplete: %+v", seed, res.Scorecard)
		}
	})
}

// fig3Fingerprint runs the §5.2 provisioning figure under o with every
// query traced and returns byte-exact JSON of the result series and the
// retained span trees.
func fig3Fingerprint(t *testing.T, o Options, seed uint64) (result, spans []byte) {
	t.Helper()
	o.Tracer = obs.NewTracer(1, 1.0, 4096)
	result, err := json.Marshal(o.Figure3(seed))
	if err != nil {
		t.Fatal(err)
	}
	if spans, err = json.Marshal(o.Tracer.Recent(0)); err != nil {
		t.Fatal(err)
	}
	return result, spans
}

// TestFig3RecordReplayIdentity is the acceptance criterion for the
// trace layer: record a fig3 run's offered load through OnArrival,
// replay it through Options.Replay into an identically-seeded run, and
// require byte-identical result and span fingerprints. Closed-loop
// sessions are gone in the replay — only the recorded submissions
// remain — yet everything downstream (service phases, controller
// actions, span trees) must not be able to tell the difference.
func TestFig3RecordReplayIdentity(t *testing.T) {
	t.Parallel()
	forSeeds(t, shortSeeds(t), func(t *testing.T, seed uint64) {
		rec := wltemporal.NewRecorder()
		liveRes, liveSpans := fig3Fingerprint(t, Options{OnArrival: rec.Observe}, seed)

		tr := rec.Trace()
		if len(tr.Arrivals) == 0 {
			t.Fatalf("seed=%d: recorded no arrivals", seed)
		}
		repRes, repSpans := fig3Fingerprint(t, Options{Replay: tr}, seed)

		if string(liveRes) != string(repRes) {
			t.Errorf("seed=%d: replayed fig3 result diverges from live run:\n%s\nvs\n%s",
				seed, liveRes, repRes)
		}
		if string(liveSpans) != string(repSpans) {
			t.Errorf("seed=%d: replayed span trees diverge from live run", seed)
		}
	})
}
