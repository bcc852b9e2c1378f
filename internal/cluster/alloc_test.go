package cluster

import (
	"testing"

	"outlierlb/internal/admission"
)

// raceEnabled is set by race_test.go in race-detector builds, whose
// instrumentation allocates.
var raceEnabled bool

// admittedReads returns a two-replica scheduler under admission control
// and a function submitting one read at each call, warmed until the
// engines, the collector and the admission queues have reached their
// steady size.
func admittedReads(tb testing.TB) func() {
	s, err := NewScheduler(testApp())
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range []string{"s1", "s2"} {
		r := newReplicaTB(tb, name)
		if err := s.AddReplica(r); err != nil {
			tb.Fatal(err)
		}
	}
	s.SetAdmission(admission.NewController(admission.Config{
		Rate: 1e9, Burst: 1e9, QueueCap: 1024, Deadline: 100}))
	now := 0.0
	read := func() {
		now += 0.01
		if _, err := s.Submit(now, readID); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		read()
	}
	return read
}

// TestSubmitReadAllocatesNothing: an admitted read that runs to
// completion allocates nothing, from Submit through the engine, the
// admission queue and the statistics it feeds.
func TestSubmitReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	read := admittedReads(t)
	// One run of 5000 reads, so that even a rare allocation reads as a
	// failure rather than averaging away.
	reads := func() {
		for i := 0; i < 5000; i++ {
			read()
		}
	}
	if got := testing.AllocsPerRun(1, reads); got != 0 {
		t.Fatalf("5000 admitted reads allocate %v times, want 0", got)
	}
}

// BenchmarkSubmitRead measures one admitted read through the scheduler:
// class resolution, admission gate and slot, replica pick, engine
// execution and the statistics it feeds.
func BenchmarkSubmitRead(b *testing.B) {
	read := admittedReads(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
