package cluster

import "testing"

func TestFailedReplicaReceivesNoReads(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.MarkFailed(r1)
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(float64(i), readID); err != nil {
			t.Fatal(err)
		}
	}
	if n := r1.Engine().Pool().Stats(readID.String()).Accesses; n != 0 {
		t.Fatalf("failed replica served %d accesses", n)
	}
	if !r1.Failed() {
		t.Fatal("Failed() false after MarkFailed")
	}
}

func TestWritesSkipFailedReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.MarkFailed(r2)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(float64(i), writeID); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.AppliedSeq(r2); got != 0 {
		t.Fatalf("failed replica applied %d writes", got)
	}
	// Live replicas stay consistent.
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryBringsReplicaUpToDate(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.MarkFailed(r2)
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	s.MarkRecovered(r2)
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	// The recovered replica serves reads again.
	served := false
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(float64(i)+1, readID); err != nil {
			t.Fatal(err)
		}
	}
	if r2.Engine().Pool().Stats(readID.String()).Accesses > 0 {
		served = true
	}
	if !served {
		t.Fatal("recovered replica never served a read")
	}
}

func TestAllReplicasFailedIsUnavailable(t *testing.T) {
	r1 := newReplica(t, "s1")
	s := newSched(t, r1)
	s.MarkFailed(r1)
	if _, err := s.Submit(0, readID); err == nil {
		t.Fatal("read served with every replica failed")
	}
	if _, err := s.Submit(0, writeID); err == nil {
		t.Fatal("write accepted with every replica failed")
	}
	// Recovery restores service.
	s.MarkRecovered(r1)
	if _, err := s.Submit(1, writeID); err != nil {
		t.Fatal(err)
	}
}

func TestFailureDuringAsyncReplication(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(0.1)
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	s.MarkFailed(r2)
	for i := 0; i < 10; i++ {
		now := 0.2 + float64(i)*0.1
		id := readID
		if i%2 == 0 {
			id = writeID
		}
		if _, err := s.Submit(now, id); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkRecovered(r2)
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(5, readID); err != nil {
		t.Fatal(err)
	}
}
