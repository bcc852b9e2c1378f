package cluster

import (
	"testing"

	"outlierlb/internal/admission"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
)

// The scheduler resolves a class to its table entry and a replica to its
// per-scheduler state once, and the read path works on those afterwards.
// These tests change the resolved state through every public event that
// must refresh it and then check where the next reads land: on which
// engine, with which spec, holding a slot in which admission queue.

// accesses reports how many page accesses id has made on r's engine.
func accesses(r *Replica, id metrics.ClassID) int64 {
	return r.Engine().Pool().Stats(id.String()).Accesses
}

// readOn submits one read of id at now and returns the replica that
// executed it, failing unless exactly one replica's engine saw it.
func readOn(t *testing.T, s *Scheduler, now float64, id metrics.ClassID, reps ...*Replica) *Replica {
	t.Helper()
	before := make([]int64, len(reps))
	for i, r := range reps {
		before[i] = accesses(r, id)
	}
	if _, err := s.Submit(now, id); err != nil {
		t.Fatalf("read of %v at %v: %v", id, now, err)
	}
	var got *Replica
	for i, r := range reps {
		if accesses(r, id) != before[i] {
			if got != nil {
				t.Fatalf("read of %v at %v ran on two engines", id, now)
			}
			got = r
		}
	}
	if got == nil {
		t.Fatalf("read of %v at %v ran on none of the replicas", id, now)
	}
	return got
}

func TestResolvedPlaceClassAwayAndBack(t *testing.T) {
	r1, r2, r3 := newReplica(t, "s1"), newReplica(t, "s2"), newReplica(t, "s3")
	s := newSched(t, r1, r2, r3)
	adm := admission.NewController(admission.Config{QueueCap: 64})
	s.SetAdmission(adm)
	now := 0.0
	// step spaces reads far enough apart that each has completed, and
	// freed its slot, before the next arrives.
	const step = 10.0
	read := func(want ...*Replica) {
		t.Helper()
		for _, w := range want {
			now += step
			got := readOn(t, s, now, readID, r1, r2, r3)
			if got != w {
				t.Fatalf("read at %v ran on %s, want %s", now, got.Server().Name(), w.Server().Name())
			}
			if d := adm.QueueFor(w.Server().Name()).Depth(now); d != 1 {
				t.Fatalf("read at %v: %s's queue holds %d slots, want the read's 1", now, w.Server().Name(), d)
			}
		}
	}
	read(r1, r2, r3, r1)
	if err := s.PlaceClass(readID, r2); err != nil {
		t.Fatal(err)
	}
	read(r2, r2)
	if _, ok := r1.Engine().Class(readID); ok {
		t.Fatal("class still registered on a replica it was moved away from")
	}
	if err := s.PlaceClass(readID, r3, r1); err != nil {
		t.Fatal(err)
	}
	read(r3, r1, r3)
	if err := s.PlaceClass(readID, r2); err != nil {
		t.Fatal(err)
	}
	read(r2)
	// The other read class kept its own placement and cursor.
	if got := readOn(t, s, now+step, read2ID, r1, r2, r3); got != r1 {
		t.Fatalf("untouched class read ran on %s, want s1", got.Server().Name())
	}
}

func TestResolvedUpdateClassPattern(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	readOn(t, s, 1, readID, r1, r2)
	readOn(t, s, 2, readID, r1, r2)
	spec := testApp().Classes[0]
	spec.PagesPerQuery = 3
	spec.Pattern = &trace.SequentialScan{Base: 7000, Span: 10}
	if err := s.UpdateClass(spec); err != nil {
		t.Fatal(err)
	}
	for i, now := range []float64{3, 4} {
		r := readOn(t, s, now, readID, r1, r2)
		w := r.Engine().Window(readID)
		tail := w[len(w)-3:]
		for j, pg := range tail {
			if want := uint64(7000 + 3*i + j); pg != want {
				t.Fatalf("read %d after the update touched %v, want pages from the new pattern (%d…)", i, tail, 7000+3*i)
			}
		}
		if c, _ := r.Engine().Class(readID); c.PagesPerQuery != 3 {
			t.Fatalf("engine runs the class with %d pages per query, want the updated 3", c.PagesPerQuery)
		}
	}
	// A later placement registers the updated spec, not the original.
	if err := s.PlaceClass(readID, r2); err != nil {
		t.Fatal(err)
	}
	if c, _ := r2.Engine().Class(readID); c.PagesPerQuery != 3 {
		t.Fatalf("re-placed class registered with %d pages per query, want the updated 3", c.PagesPerQuery)
	}
}

func TestResolvedRemoveReplicaReregisters(t *testing.T) {
	r1, r2, r3 := newReplica(t, "s1"), newReplica(t, "s2"), newReplica(t, "s3")
	s := newSched(t, r1, r2, r3)
	adm := admission.NewController(admission.Config{QueueCap: 64})
	s.SetAdmission(adm)
	if err := s.PlaceClass(readID, r2); err != nil {
		t.Fatal(err)
	}
	readOn(t, s, 1, readID, r1, r2, r3)
	// Removing the class's only replica moves it to every remaining
	// replica and registers it there again.
	if err := s.RemoveReplica(r2); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{r1, r3} {
		if _, ok := r.Engine().Class(readID); !ok {
			t.Fatalf("class not re-registered on %s", r.Server().Name())
		}
	}
	// The round-robin cursor carries over: one read went to s2 before.
	for i, want := range []*Replica{r3, r1, r3} {
		now := 10 * float64(i+2)
		if got := readOn(t, s, now, readID, r1, r2, r3); got != want {
			t.Fatalf("read %d ran on %s, want %s", i, got.Server().Name(), want.Server().Name())
		}
		if d := adm.QueueFor(want.Server().Name()).Depth(now); d != 1 {
			t.Fatalf("read %d: %s's queue holds %d slots, want 1", i, want.Server().Name(), d)
		}
	}
	if d := adm.QueueFor("s2").Depth(100); d != 0 {
		t.Fatalf("removed replica's queue holds %d slots", d)
	}
	if s.AppliedSeq(r2) != 0 || len(s.states) != 2 {
		t.Fatalf("removed replica still has scheduler state (%d replicas tracked)", len(s.states))
	}
}

// TestResolvedAttachSharesEngine: a replica attached to a second
// application keeps a separate write sequence per scheduler, so one
// application's writes neither make the shared replica stale for the
// other's reads nor count as the other's.
func TestResolvedAttachSharesEngine(t *testing.T) {
	m := NewManager()
	srv := newServer("s1")
	m.AddServer(srv)
	shop, err := NewScheduler(testApp())
	if err != nil {
		t.Fatal(err)
	}
	lookupID := metrics.ClassID{App: "bids", Class: "Lookup"}
	bidID := metrics.ClassID{App: "bids", Class: "Bid"}
	bids, err := NewScheduler(&Application{Name: "bids", SLA: sla.Default(), Classes: []engine.ClassSpec{
		{ID: lookupID, CPUPerQuery: 0.01, PagesPerQuery: 2, Pattern: &trace.SequentialScan{Base: 5000, Span: 100}},
		{ID: bidID, CPUPerQuery: 0.01, PagesPerQuery: 1, Pattern: &trace.SequentialScan{Base: 6000, Span: 10}, Write: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*Scheduler{shop, bids} {
		if err := m.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Provision("shop", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("bids", rep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := shop.Submit(float64(i), writeID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bids.Submit(5, bidID); err != nil {
		t.Fatal(err)
	}
	if got := shop.AppliedSeq(rep); got != 3 {
		t.Fatalf("shop's applied sequence on the shared replica = %d, want 3", got)
	}
	if got := bids.AppliedSeq(rep); got != 1 {
		t.Fatalf("bids' applied sequence on the shared replica = %d, want 1", got)
	}
	readOn(t, bids, 10, lookupID, rep)
	readOn(t, shop, 10, readID, rep)
	for _, sc := range []*Scheduler{shop, bids} {
		if err := sc.ConsistencyCheck(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResolvedAdmissionAttachOrder: the scheduler's per-replica queues
// follow the controller attached now, whether it came before the
// replicas, after them, or replaced another.
func TestResolvedAdmissionAttachOrder(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t)
	first := admission.NewController(admission.Config{QueueCap: 64})
	s.SetAdmission(first)
	if err := s.AddReplica(r1); err != nil {
		t.Fatal(err)
	}
	r2 := newReplica(t, "s2")
	if err := s.AddReplica(r2); err != nil {
		t.Fatal(err)
	}
	readOn(t, s, 1, readID, r1, r2)
	readOn(t, s, 1, readID, r1, r2)
	for _, name := range []string{"s1", "s2"} {
		if d := first.QueueFor(name).Depth(1); d != 1 {
			t.Fatalf("controller attached before the replicas: %s's queue holds %d slots, want 1", name, d)
		}
	}
	second := admission.NewController(admission.Config{QueueCap: 64})
	s.SetAdmission(second)
	readOn(t, s, 2, readID, r1, r2)
	if d := second.QueueFor("s1").Depth(2); d != 1 {
		t.Fatalf("replacement controller: s1's queue holds %d slots, want 1", d)
	}
	if d := first.QueueFor("s1").Depth(1); d != 1 {
		t.Fatalf("the replaced controller's queue changed: %d slots, want the 1 it held", d)
	}
	// The entry gate is the replacement's too: its ledger counts the
	// read, and its shed list turns the class away.
	if got := second.CountsFor(readID).Admitted; got != 1 {
		t.Fatalf("replacement controller admitted %d reads, want 1", got)
	}
	if got := first.CountsFor(readID).Admitted; got != 2 {
		t.Fatalf("replaced controller's ledger moved to %d admitted, want its 2", got)
	}
	second.ShedClass(readID)
	if _, err := s.Submit(2.5, readID); err == nil {
		t.Fatal("class shed by the replacement controller still admitted")
	}
	second.Readmit(readID)
	s.SetAdmission(nil)
	readOn(t, s, 3, readID, r1, r2)
	if d := second.QueueFor("s2").Depth(3); d != 0 {
		t.Fatalf("detached controller still receives slots: %d", d)
	}
}
