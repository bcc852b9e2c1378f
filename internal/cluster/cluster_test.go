package cluster

import (
	"testing"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/server"
	"outlierlb/internal/sla"
	"outlierlb/internal/storage"
	"outlierlb/internal/trace"
)

var (
	readID  = metrics.ClassID{App: "shop", Class: "Browse"}
	read2ID = metrics.ClassID{App: "shop", Class: "Search"}
	writeID = metrics.ClassID{App: "shop", Class: "Buy"}
)

func testApp() *Application {
	return &Application{
		Name: "shop",
		SLA:  sla.Default(),
		Classes: []engine.ClassSpec{
			{ID: readID, CPUPerQuery: 0.01, PagesPerQuery: 2, Pattern: &trace.SequentialScan{Span: 100}},
			{ID: read2ID, CPUPerQuery: 0.01, PagesPerQuery: 2, Pattern: &trace.SequentialScan{Base: 1000, Span: 100}},
			{ID: writeID, CPUPerQuery: 0.02, PagesPerQuery: 1, Pattern: &trace.SequentialScan{Base: 2000, Span: 50}, Write: true},
		},
	}
}

func newServer(name string) *server.Server {
	return server.MustNew(server.Config{
		Name: name, Cores: 4, MemoryPages: 10000,
		Disk: storage.Params{Seek: 0.001, PerPage: 0.0001},
	})
}

func newReplica(t *testing.T, name string) *Replica {
	t.Helper()
	return newReplicaTB(t, name)
}

func newReplicaTB(tb testing.TB, name string) *Replica {
	tb.Helper()
	srv := newServer(name)
	eng, err := engine.New(engine.Config{Name: "eng-" + name, Pool: bufferpool.Config{Capacity: 5000}}, srv)
	if err != nil {
		tb.Fatal(err)
	}
	return NewReplica(eng, srv)
}

func newSched(t *testing.T, replicas ...*Replica) *Scheduler {
	t.Helper()
	s, err := NewScheduler(testApp())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replicas {
		if err := s.AddReplica(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil); err == nil {
		t.Fatal("nil application accepted")
	}
	if _, err := NewScheduler(&Application{}); err == nil {
		t.Fatal("unnamed application accepted")
	}
	bad := testApp()
	bad.Classes[0].ID.App = "other"
	if _, err := NewScheduler(bad); err == nil {
		t.Fatal("foreign class accepted")
	}
	dup := testApp()
	dup.Classes = append(dup.Classes, dup.Classes[0])
	if _, err := NewScheduler(dup); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestSubmitWithoutReplicas(t *testing.T) {
	s := newSched(t)
	if _, err := s.Submit(0, readID); err == nil {
		t.Fatal("submit with no replicas succeeded")
	}
}

func TestSubmitUnknownClass(t *testing.T) {
	s := newSched(t, newReplica(t, "s1"))
	if _, err := s.Submit(0, metrics.ClassID{App: "shop", Class: "Nope"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestReadsRoundRobinAcrossPlacement(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	n1 := r1.Engine().Pool().Stats(readID.String()).Accesses
	n2 := r2.Engine().Pool().Stats(readID.String()).Accesses
	if n1 == 0 || n2 == 0 {
		t.Fatalf("reads not balanced: %d vs %d accesses", n1, n2)
	}
}

func TestWritesGoToAllReplicas(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(float64(i), writeID); err != nil {
			t.Fatal(err)
		}
	}
	if s.WriteSeq() != 5 {
		t.Fatalf("write seq = %d, want 5", s.WriteSeq())
	}
	for _, r := range []*Replica{r1, r2} {
		if got := s.AppliedSeq(r); got != 5 {
			t.Fatalf("replica applied %d writes, want 5", got)
		}
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOneWriteAllInterleavedStaysConsistent(t *testing.T) {
	r1, r2, r3 := newReplica(t, "s1"), newReplica(t, "s2"), newReplica(t, "s3")
	s := newSched(t, r1, r2, r3)
	ids := []metrics.ClassID{readID, writeID, read2ID, writeID, readID}
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(float64(i), ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceClassRestrictsReads(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	if err := s.PlaceClass(readID, r2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	if n := r1.Engine().Pool().Stats(readID.String()).Accesses; n != 0 {
		t.Fatalf("displaced replica still served %d accesses", n)
	}
	if n := r2.Engine().Pool().Stats(readID.String()).Accesses; n == 0 {
		t.Fatal("target replica served nothing")
	}
	// The read-only class is deregistered from the replica it left.
	if _, ok := r1.Engine().Class(readID); ok {
		t.Fatal("class still registered on displaced replica")
	}
}

func TestPlaceClassValidation(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t, r1)
	if err := s.PlaceClass(metrics.ClassID{App: "shop", Class: "Nope"}, r1); err == nil {
		t.Fatal("unknown class placed")
	}
	if err := s.PlaceClass(readID); err == nil {
		t.Fatal("empty placement accepted")
	}
	foreign := newReplica(t, "sX")
	if err := s.PlaceClass(readID, foreign); err == nil {
		t.Fatal("unattached replica accepted")
	}
}

func TestWriteClassStaysEverywhereAfterPlaceClass(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	if err := s.PlaceClass(writeID, r2); err != nil {
		t.Fatal(err)
	}
	// ROWA: the write must still execute on both replicas.
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestAddReplicaAfterWritesFails_Consistency(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t, r1)
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	// A new replica is brought up to date on attach.
	r2 := newReplica(t, "s2")
	if err := s.AddReplica(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(1, readID); err != nil {
		t.Fatal(err)
	}
}

func TestAddReplicaTwiceRejected(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t, r1)
	if err := s.AddReplica(r1); err == nil {
		t.Fatal("duplicate replica accepted")
	}
}

func TestRemoveReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	if err := s.PlaceClass(readID, r1); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveReplica(r1); err != nil {
		t.Fatal(err)
	}
	// readID's placement fell back to the remaining replicas.
	if got := s.Placement(readID); len(got) != 1 || got[0] != r2 {
		t.Fatalf("placement after removal = %v", got)
	}
	if _, err := s.Submit(0, readID); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveReplica(r2); err == nil {
		t.Fatal("removed the last replica")
	}
	if err := s.RemoveReplica(r1); err == nil {
		t.Fatal("removed a detached replica")
	}
}

func TestTrackerSeesLatencies(t *testing.T) {
	s := newSched(t, newReplica(t, "s1"))
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	iv := s.Tracker().CloseInterval(0, 10)
	if iv.Queries != 10 || iv.AvgLatency <= 0 {
		t.Fatalf("interval = %+v", iv)
	}
	if iv.Throughput != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", iv.Throughput)
	}
}

func TestPlacementSummary(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t, r1)
	lines := s.PlacementSummary()
	if len(lines) != 3 {
		t.Fatalf("summary = %v", lines)
	}
	if lines[0] != "Browse → s1" {
		t.Fatalf("first line = %q", lines[0])
	}
}

func TestManagerProvisioning(t *testing.T) {
	m := NewManager()
	m.PoolConfig = bufferpool.Config{Capacity: 1000}
	s1, s2 := newServer("s1"), newServer("s2")
	m.AddServer(s1)
	m.AddServer(s2)

	sched, err := NewScheduler(testApp())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(sched); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(sched); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	rep, err := m.ProvisionOnFreeServer("shop")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server() != s1 {
		t.Fatalf("provisioned on %q, want s1", rep.Server().Name())
	}
	if m.UsedServers() != 1 {
		t.Fatalf("used servers = %d", m.UsedServers())
	}
	if free := m.FreeServer(); free != s2 {
		t.Fatal("free server wrong")
	}
	if _, err := m.ProvisionOnFreeServer("shop"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ProvisionOnFreeServer("shop"); err == nil {
		t.Fatal("provisioned beyond the pool")
	}
	if _, err := m.Provision("ghost", s1); err == nil {
		t.Fatal("unknown app provisioned")
	}
	if _, err := m.Provision("shop", newServer("outside")); err == nil {
		t.Fatal("foreign server accepted")
	}
	if got, ok := m.Scheduler("shop"); !ok || got != sched {
		t.Fatal("Scheduler lookup failed")
	}
	lines := m.Allocation()
	if len(lines) != 2 {
		t.Fatalf("allocation = %v", lines)
	}
}

func TestManagerAttachSharedEngine(t *testing.T) {
	// Two applications inside a single DBMS sharing one buffer pool —
	// the §5.4 configuration.
	m := NewManager()
	m.PoolConfig = bufferpool.Config{Capacity: 8192}
	srv := newServer("s1")
	m.AddServer(srv)

	shopSched, _ := NewScheduler(testApp())
	other := &Application{
		Name: "auction",
		SLA:  sla.Default(),
		Classes: []engine.ClassSpec{
			{ID: metrics.ClassID{App: "auction", Class: "Bid"}, CPUPerQuery: 0.01,
				PagesPerQuery: 1, Pattern: &trace.SequentialScan{Base: 90000, Span: 10}},
		},
	}
	otherSched, err := NewScheduler(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(shopSched); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(otherSched); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Provision("shop", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("auction", rep); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("ghost", rep); err == nil {
		t.Fatal("unknown app attached")
	}
	if _, err := shopSched.Submit(0, readID); err != nil {
		t.Fatal(err)
	}
	if _, err := otherSched.Submit(0, metrics.ClassID{App: "auction", Class: "Bid"}); err != nil {
		t.Fatal(err)
	}
	// Both applications' pages live in the same pool.
	if rep.Engine().Pool().Resident() == 0 {
		t.Fatal("shared pool empty")
	}
}
