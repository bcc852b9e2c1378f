package cluster

import (
	"testing"
)

func TestAsyncWriteCompletesOnPrimary(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(0.5)
	done, err := s.Submit(0, writeID)
	if err != nil {
		t.Fatal(err)
	}
	// The write completes when one replica finishes — well before the
	// 0.5 s apply lag on the other.
	if done >= 0.5 {
		t.Fatalf("async write waited for remote apply: done = %v", done)
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncReadWaitsForFreshness(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(2.0)
	// Restrict the read class to r1, then write: the first write's
	// primary is r2 (sequence-number rotation), so r1 lags for 2 s and
	// the read — pinned to r1 — must wait out the freshness horizon
	// rather than return stale data.
	if err := s.PlaceClass(readID, r1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	done, err := s.Submit(0.01, readID)
	if err != nil {
		t.Fatal(err)
	}
	if done < 2.0 {
		t.Fatalf("read served before the lagging replica was fresh: done = %v", done)
	}
}

func TestAsyncReadsPreferFreshReplicas(t *testing.T) {
	r1, r2, r3 := newReplica(t, "s1"), newReplica(t, "s2"), newReplica(t, "s3")
	s := newSched(t, r1, r2, r3)
	s.SetAsyncReplication(5.0)
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	// With one fresh primary and two laggards, repeated reads served
	// before the lag expires should all come back fast (the scheduler
	// keeps picking the fresh one).
	for i := 0; i < 6; i++ {
		done, err := s.Submit(0.1, readID)
		if err != nil {
			t.Fatal(err)
		}
		if done >= 5.0 {
			t.Fatalf("read %d waited for a laggard despite a fresh replica", i)
		}
	}
}

func TestAsyncLagZeroIsSynchronous(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(0)
	done, err := s.Submit(0, writeID)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("write completed instantly")
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	s.SetAsyncReplication(-3) // negative clamps to sync
	if _, err := s.Submit(1, writeID); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncInterleavedConsistency(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(0.2)
	now := 0.0
	for i := 0; i < 60; i++ {
		id := readID
		if i%3 == 0 {
			id = writeID
		}
		done, err := s.Submit(now, id)
		if err != nil {
			t.Fatal(err)
		}
		if done < now {
			t.Fatalf("completion %v before submission %v", done, now)
		}
		now += 0.05
	}
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredReplicaServesNoStaleReads(t *testing.T) {
	// Regression for recovery under async replication: MarkRecovered
	// performs state transfer and clears the replica's freshness
	// horizon, so reads routed to the recovered replica are immediately
	// consistent — they neither wait out a pre-crash apply lag nor
	// observe pre-crash staleness.
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(5.0)
	// Write 1's primary is r2, so r1 is a laggard with a freshness
	// horizon out at t≈5 when it crashes.
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	s.MarkFailed(r1)
	if _, err := s.Submit(0.1, writeID); err != nil {
		t.Fatal(err)
	}
	s.MarkRecovered(r1)
	if err := s.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	// Pin reads to the recovered replica: the scheduler admits them
	// immediately instead of holding them until the stale pre-crash
	// apply horizon (t≈5) — state transfer made the replica fresh now.
	if err := s.PlaceClass(readID, r1); err != nil {
		t.Fatal(err)
	}
	c, _ := s.class(readID)
	st, start := s.pickFreshReplica(0.2, c, nil)
	if st == nil || st.r != r1 {
		t.Fatalf("read routed to %v, want the recovered replica", st)
	}
	if start != 0.2 {
		t.Fatalf("read held until %v — a pre-crash freshness horizon survived recovery", start)
	}
	if _, err := s.Submit(0.2, readID); err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedSeq(r1); got != s.WriteSeq() {
		t.Fatalf("recovered replica at seq %d, scheduler at %d", got, s.WriteSeq())
	}
}

func TestAsyncRemoveLaggingReplica(t *testing.T) {
	r1, r2 := newReplica(t, "s1"), newReplica(t, "s2")
	s := newSched(t, r1, r2)
	s.SetAsyncReplication(10)
	if _, err := s.Submit(0, writeID); err != nil {
		t.Fatal(err)
	}
	// Removing the lagging replica must leave reads healthy.
	if err := s.RemoveReplica(r2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(0.1, readID); err != nil {
		t.Fatal(err)
	}
}
