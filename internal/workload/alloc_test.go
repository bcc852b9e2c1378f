package workload

import "testing"

// raceEnabled is set by race_test.go in race-detector builds, whose
// instrumentation allocates.
var raceEnabled bool

// TestEmulatorArrivalAllocatesNothing: once the client population is
// up and the engine warm, an event-loop step — a client arrival that
// submits its read and schedules the client's next one, or an
// adjustment tick — allocates nothing.
func TestEmulatorArrivalAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng, sched := testSetup(t)
	em, err := NewEmulator(eng, sched, Config{
		Mix:       []MixEntry{{ID: browse, Weight: 1}},
		ThinkTime: 0.5,
		Load:      Constant(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	em.Start()
	eng.RunUntil(200)
	// One run of 2000 steps, so that even one allocation in them — say
	// once per adjustment tick — reads as a failure rather than
	// averaging away.
	before := em.Interactions()
	steps := func() {
		for i := 0; i < 2000; i++ {
			eng.Step()
		}
	}
	if got := testing.AllocsPerRun(1, steps); got != 0 {
		t.Fatalf("2000 event-loop steps allocate %v times, want 0", got)
	}
	if n := em.Interactions() - before; n < 2000 {
		t.Fatalf("only %d arrivals in 4000 steps", n)
	}
	if len(em.Errors()) > 0 {
		t.Fatal(em.Errors()[0])
	}
}
