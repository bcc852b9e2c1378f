package admission

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
)

func cid(class string) metrics.ClassID {
	return metrics.ClassID{App: "shop", Class: class}
}

func TestTokenBucket(t *testing.T) {
	a := NewController(Config{Rate: 10, Burst: 5})
	for i := 0; i < 5; i++ {
		if err := a.Admit(0, cid("browse")); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := a.Admit(0, cid("browse"))
	rej, ok := IsRejection(err)
	if !ok || rej.Reason != ReasonThrottled {
		t.Fatalf("6th admit: err = %v, want throttled rejection", err)
	}
	// 0.1s of refill at 10/s buys exactly one more token.
	if err := a.Admit(0.1, cid("browse")); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if err := a.Admit(0.1, cid("browse")); err == nil {
		t.Fatal("bucket should be empty again")
	}
	c := a.CountsFor(cid("browse"))
	if c.Admitted != 6 || c.Throttled != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestProtectedClassBypassesTokens(t *testing.T) {
	vip := cid("checkout")
	a := NewController(Config{Rate: 1, Burst: 1, Protected: map[metrics.ClassID]bool{vip: true}})
	if err := a.Admit(0, cid("browse")); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(0, cid("browse")); err == nil {
		t.Fatal("bucket should be empty")
	}
	for i := 0; i < 50; i++ {
		if err := a.Admit(0, vip); err != nil {
			t.Fatalf("protected admit %d: %v", i, err)
		}
	}
}

func TestZeroRateDisablesTokenGate(t *testing.T) {
	a := NewController(Config{})
	for i := 0; i < 1000; i++ {
		if err := a.Admit(0, cid("browse")); err != nil {
			t.Fatalf("admit %d with disabled gate: %v", i, err)
		}
	}
}

func TestShedAndReadmit(t *testing.T) {
	vip := cid("checkout")
	a := NewController(Config{ReadmitAfter: 2, Protected: map[metrics.ClassID]bool{vip: true}})

	if _, ok := a.ShedClass(vip); ok {
		t.Fatal("protected class shed")
	}
	if ord, ok := a.ShedClass(cid("audit")); !ok || ord != 1 {
		t.Fatalf("first shed: ord = %d, ok = %v", ord, ok)
	}
	if _, ok := a.ShedClass(cid("audit")); ok {
		t.Fatal("duplicate shed accepted")
	}
	if ord, ok := a.ShedClass(cid("report")); !ok || ord != 2 {
		t.Fatalf("second shed: ord = %d, ok = %v", ord, ok)
	}

	err := a.Admit(0, cid("audit"))
	if rej, ok := IsRejection(err); !ok || rej.Reason != ReasonShed {
		t.Fatalf("shed class admitted: %v", err)
	}
	if c := a.CountsFor(cid("audit")); c.Shed != 1 {
		t.Fatalf("shed count = %d", c.Shed)
	}

	// Hysteresis: one stable interval is not enough.
	if _, ok := a.ReadmitTick(lifo); ok {
		t.Fatal("readmitted after a single stable interval")
	}
	// A violation resets the streak.
	a.ViolationTick()
	if _, ok := a.ReadmitTick(lifo); ok {
		t.Fatal("readmitted with a broken streak")
	}
	// Two consecutive stable intervals: LIFO — report returns first.
	id, ok := a.ReadmitTick(lifo)
	if !ok || id != cid("report") {
		t.Fatalf("readmit = %v, %v; want report", id, ok)
	}
	if a.IsShed(cid("report")) || !a.IsShed(cid("audit")) {
		t.Fatal("shed set wrong after readmission")
	}
	// The streak restarts for the next class.
	if _, ok := a.ReadmitTick(lifo); ok {
		t.Fatal("second class readmitted on the same streak")
	}
	if id, ok := a.ReadmitTick(lifo); !ok || id != cid("audit") {
		t.Fatalf("readmit = %v, %v; want audit", id, ok)
	}
	if got := a.ShedClasses(); len(got) != 0 {
		t.Fatalf("shed list not empty: %v", got)
	}
}

// lifo is the controller's default readmission choice: the class shed
// last returns first.
func lifo(shed []metrics.ClassID) metrics.ClassID { return shed[len(shed)-1] }

func TestFreshShedResetsStreak(t *testing.T) {
	a := NewController(Config{ReadmitAfter: 2})
	a.ShedClass(cid("audit"))
	a.ReadmitTick(lifo) // streak 1 of 2
	a.ShedClass(cid("report"))
	if _, ok := a.ReadmitTick(lifo); ok {
		t.Fatal("readmitted despite a fresh shed resetting the streak")
	}
	if id, ok := a.ReadmitTick(lifo); !ok || id != cid("report") {
		t.Fatalf("readmit = %v, %v", id, ok)
	}
}

func TestQueueBounds(t *testing.T) {
	q := NewQueue(2)
	if !q.TryAcquire(0) || !q.TryAcquire(0) {
		t.Fatal("acquire below capacity failed")
	}
	if q.TryAcquire(0) {
		t.Fatal("acquire above capacity succeeded")
	}
	q.Commit(5.0) // finishes at t=5
	q.Cancel()    // abandoned attempt frees immediately
	if !q.TryAcquire(1) {
		t.Fatal("cancelled slot not reusable")
	}
	if d := q.Depth(1); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	// At t=6 the committed query has finished; its slot frees lazily.
	if d := q.Depth(6); d != 1 {
		t.Fatalf("depth after completion = %d, want 1", d)
	}
}

func TestTryEnqueueDeadline(t *testing.T) {
	a := NewController(Config{QueueCap: 1, Deadline: 1.0})
	if r := a.TryEnqueue(new(*Queue), "db1", 0, 2.0); r != ReasonDeadline {
		t.Fatalf("doomed query got %q, want deadline rejection", r)
	}
	// The deadline rejection must not have consumed the slot.
	if r := a.TryEnqueue(new(*Queue), "db1", 0, 0.5); r != "" {
		t.Fatalf("viable query got %q", r)
	}
	if r := a.TryEnqueue(new(*Queue), "db1", 0, 0.5); r != ReasonQueueFull {
		t.Fatalf("full queue got %q", r)
	}
	err := a.Reject(cid("browse"), ReasonQueueFull, "all replicas full")
	rej, ok := IsRejection(err)
	if !ok || rej.Reason != ReasonQueueFull || rej.ID != cid("browse") {
		t.Fatalf("reject err = %v", err)
	}
	c := a.CountsFor(cid("browse"))
	if c.QueueRejected != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestSnapshot(t *testing.T) {
	a := NewController(Config{Rate: 10, Burst: 4, QueueCap: 8})
	_ = a.Admit(0, cid("browse"))
	a.TryEnqueue(new(*Queue), "db2", 0, 0)
	a.TryEnqueue(new(*Queue), "db1", 0, 0)
	a.ShedClass(cid("audit"))
	s := a.Snapshot(0, "shop")
	if s.App != "shop" || s.Tokens != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Queues) != 2 || s.Queues[0].Server != "db1" || s.Queues[1].Server != "db2" {
		t.Fatalf("queues not sorted: %+v", s.Queues)
	}
	if len(s.ShedClasses) != 1 || s.ShedClasses[0] != "audit" {
		t.Fatalf("shed classes = %v", s.ShedClasses)
	}
	off := NewController(Config{})
	if s := off.Snapshot(0, "shop"); s.Tokens != -1 {
		t.Fatalf("disabled gate tokens = %v, want -1", s.Tokens)
	}
}

// TestQueueConcurrent drives real goroutines against one bounded queue
// (run under -race): the capacity invariant must hold at every instant,
// no acquired slot may be lost, and every success is released exactly
// once — no lost or double-executed queries.
func TestQueueConcurrent(t *testing.T) {
	const (
		capacity   = 4
		submitters = 8
		perWorker  = 500
	)
	q := NewQueue(capacity)
	var inFlight, peak, acquired, rejected int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				now := float64(i)
				if !q.TryAcquire(now) {
					atomic.AddInt64(&rejected, 1)
					continue
				}
				cur := atomic.AddInt64(&inFlight, 1)
				if cur > capacity {
					t.Errorf("in-flight %d exceeds capacity %d", cur, capacity)
				}
				for {
					p := atomic.LoadInt64(&peak)
					if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
						break
					}
				}
				atomic.AddInt64(&acquired, 1)
				// Release exactly once: most iterations commit a completion
				// a few time units out — the slot stays occupied until a
				// later acquire's now passes it, which is what fills the
				// queue and forces rejections — and every eighth cancels.
				atomic.AddInt64(&inFlight, -1)
				if i%8 == 0 {
					q.Cancel()
				} else {
					q.Commit(now + 3)
				}
			}
		}(w)
	}
	wg.Wait()
	if total := acquired + rejected; total != submitters*perWorker {
		t.Fatalf("attempts %d != %d: slots lost or double-counted", total, submitters*perWorker)
	}
	if acquired == 0 || rejected == 0 {
		t.Fatalf("degenerate run: acquired %d rejected %d — thresholds need tuning", acquired, rejected)
	}
	if p := atomic.LoadInt64(&peak); p > capacity {
		t.Fatalf("peak in-flight %d exceeded capacity %d", p, capacity)
	}
	// Every slot was released: far in the future the queue must be empty.
	if d := q.Depth(1e12); d != 0 {
		t.Fatalf("leaked slots: depth = %d", d)
	}
}

// TestControllerConcurrent hammers one Controller from many goroutines
// (run under -race): Admit, TryEnqueue/Commit, shed/readmit and
// snapshots all interleave without tearing the ledger.
func TestControllerConcurrent(t *testing.T) {
	a := NewController(Config{Rate: 1e6, Burst: 1e6, QueueCap: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := cid(fmt.Sprintf("class-%d", w%4))
			server := fmt.Sprintf("db%d", w%2+1)
			var q *Queue
			for i := 0; i < 300; i++ {
				now := float64(i)
				if err := a.Admit(now, id); err != nil {
					continue
				}
				if r := a.TryEnqueue(&q, server, now, 0); r == "" {
					q.Commit(now)
				}
				switch i % 50 {
				case 10:
					a.ShedClass(id)
				case 20:
					a.ReadmitTick(lifo)
				case 30:
					a.ViolationTick()
				case 40:
					a.Snapshot(now, "shop")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := a.Snapshot(1e9, "shop"); len(got.Classes) == 0 {
		t.Fatal("no per-class counts accumulated")
	}
}

// BenchmarkAdmission measures the hot path a query pays under admission
// control: the entry gate plus one slot reserve/commit cycle. The
// acceptance bar is well under a microsecond per operation.
func BenchmarkAdmission(b *testing.B) {
	a := NewController(Config{Rate: 1e12, Burst: 1e12, QueueCap: 1024, Deadline: 10})
	id := cid("browse")
	q := a.QueueFor("db1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		if err := a.Admit(now, id); err != nil {
			b.Fatal(err)
		}
		if r := a.TryEnqueue(&q, "db1", now, 0.5); r != "" {
			b.Fatal(r)
		}
		q.Commit(now + 0.1)
	}
}

// TestSpanVerdictEvents drives the gate with a tracer attached and
// checks each admission decision lands on the current query span:
// admitted/rejected verdicts from Admit, slot acquire and the deadline
// early-rejection from TryEnqueue.
func TestSpanVerdictEvents(t *testing.T) {
	tr := obs.NewTracer(1, 1.0, 8)
	a := NewController(Config{Rate: 1, Burst: 1, QueueCap: 1, Deadline: 2})
	a.SetTracer(tr)

	events := func(run func()) []obs.SpanEvent {
		sp := tr.StartQuery(0, "shop", "browse")
		run()
		sp.Finish(1)
		return sp.Events
	}

	// First query: admitted (burst token) and granted a slot.
	evs := events(func() {
		if err := a.Admit(0, cid("browse")); err != nil {
			t.Fatal(err)
		}
		if r := a.TryEnqueue(new(*Queue), "db1", 0, 0.5); r != "" {
			t.Fatalf("enqueue rejected: %s", r)
		}
	})
	if len(evs) != 2 || evs[0].Kind != obs.EventAdmitted || evs[1].Kind != obs.EventSlotAcquire {
		t.Fatalf("admitted query events = %+v", evs)
	}
	if evs[0].Fields["tokens"] != 0 {
		t.Errorf("admitted event tokens = %g, want 0 (burst spent)", evs[0].Fields["tokens"])
	}

	// Second query at the same instant: the bucket is empty.
	evs = events(func() {
		err := a.Admit(0, cid("browse"))
		if rej, ok := IsRejection(err); !ok || rej.Reason != ReasonThrottled {
			t.Fatalf("err = %v, want throttled", err)
		}
	})
	if len(evs) != 1 || evs[0].Kind != obs.EventAdmissionRejected || evs[0].Detail != string(ReasonThrottled) {
		t.Fatalf("throttled query events = %+v", evs)
	}

	// Shed class: the brownout verdict.
	if _, ok := a.ShedClass(cid("browse")); !ok {
		t.Fatal("shed refused")
	}
	evs = events(func() {
		err := a.Admit(10, cid("browse"))
		if rej, ok := IsRejection(err); !ok || rej.Reason != ReasonShed {
			t.Fatalf("err = %v, want shed", err)
		}
	})
	if len(evs) != 1 || evs[0].Kind != obs.EventAdmissionRejected || evs[0].Detail != string(ReasonShed) {
		t.Fatalf("shed query events = %+v", evs)
	}

	// Deadline early rejection at enqueue.
	evs = events(func() {
		if r := a.TryEnqueue(new(*Queue), "db1", 10, 5); r != ReasonDeadline {
			t.Fatalf("reason = %q, want deadline", r)
		}
	})
	if len(evs) != 1 || evs[0].Kind != obs.EventSlotReject || evs[0].Fields["deadline"] != 2 {
		t.Fatalf("deadline rejection events = %+v", evs)
	}

	// Queue full: the single slot is still held by the first query.
	evs = events(func() {
		if r := a.TryEnqueue(new(*Queue), "db1", 10, 0.5); r != ReasonQueueFull {
			t.Fatalf("reason = %q, want queue-full", r)
		}
	})
	if len(evs) != 1 || evs[0].Kind != obs.EventSlotReject || evs[0].Detail != string(ReasonQueueFull) {
		t.Fatalf("queue-full rejection events = %+v", evs)
	}

	// Untraced path: a nil current span must be a clean no-op.
	tr.SetCurrent(nil)
	if err := a.Admit(20, cid("other")); err != nil {
		t.Fatalf("untraced admit: %v", err)
	}
}

// TestClassHandle: AdmitClass on a resolved Class is Admit — the same
// ledger, shed flag and protection — and a class that was only resolved
// stays out of the snapshot's ledger.
func TestClassHandle(t *testing.T) {
	vip := cid("vip")
	a := NewController(Config{Rate: 1, Burst: 1, Protected: map[metrics.ClassID]bool{vip: true}})
	browse := a.Class(cid("browse"))
	a.Class(cid("idle"))
	if a.Class(cid("browse")) != browse {
		t.Fatal("Class resolved one class to two states")
	}
	if err := a.AdmitClass(0, browse); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(0, cid("browse")); err == nil {
		t.Fatal("Admit by ID did not see the token AdmitClass spent")
	}
	if err := a.AdmitClass(0, a.Class(vip)); err != nil {
		t.Fatalf("protected class throttled through its handle: %v", err)
	}
	a.ShedClass(cid("browse"))
	err := a.AdmitClass(5, browse)
	if rej, ok := IsRejection(err); !ok || rej.Reason != ReasonShed || rej.ID != cid("browse") {
		t.Fatalf("shed class through its handle: err = %v", err)
	}
	if c := a.CountsFor(cid("browse")); c != (Counts{Admitted: 1, Throttled: 1, Shed: 1}) {
		t.Fatalf("browse ledger = %+v", c)
	}
	for _, c := range a.Snapshot(5, "shop").Classes {
		if c.Class == "idle" {
			t.Fatal("a class that saw no query is in the snapshot's ledger")
		}
	}
}

// TestDoneHeapOrder: the typed completion heap pops in ascending order
// and so frees exactly the slots whose completion time has passed.
func TestDoneHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h doneHeap
	var want []float64
	for i := 0; i < 2000; i++ {
		if len(h) > 0 && rng.Intn(3) == 0 {
			got := h[0]
			h.pop()
			if got != want[0] {
				t.Fatalf("pop %d returned %v, want the minimum %v", i, got, want[0])
			}
			want = want[1:]
			continue
		}
		x := float64(rng.Intn(500)) // repeats exercise equal keys
		h.push(x)
		want = append(want, x)
		sort.Float64s(want)
	}
	for len(h) > 0 {
		if h[0] != want[0] {
			t.Fatalf("drain returned %v, want %v", h[0], want[0])
		}
		h.pop()
		want = want[1:]
	}
}
