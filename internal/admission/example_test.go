package admission_test

import (
	"fmt"

	"outlierlb/internal/admission"
	"outlierlb/internal/metrics"
)

// Example walks the slot protocol a scheduler follows for every query:
// Admit at the entry gate, TryAcquire an in-flight slot on the chosen
// replica, then exactly one of Commit (the query finished) or Cancel
// (the dispatch was abandoned — the replica crashed, say — and the slot
// must return unused).
func Example() {
	a := admission.NewController(admission.Config{
		Rate:     100, // tokens per second entering the bucket
		Burst:    10,  // bucket capacity
		QueueCap: 2,   // in-flight slots per replica
		Deadline: 1.0, // seconds; longer estimates are shed at enqueue
	})
	browse := metrics.ClassID{App: "shop", Class: "browse"}
	q := a.QueueFor("db1")

	now := 0.0
	if err := a.Admit(now, browse); err != nil {
		fmt.Println("admit:", err)
		return
	}

	// Reserve a slot; the queue holds at most QueueCap queries at once.
	if !q.TryAcquire(now) {
		fmt.Println("db1 queue full")
		return
	}
	// The query ran and finished at now+0.2: release the slot via Commit.
	q.Commit(now + 0.2)

	// A second query acquires a slot but its dispatch is abandoned;
	// Cancel returns the slot immediately, without a completion time.
	if q.TryAcquire(now) {
		q.Cancel()
	}

	// A committed slot stays held until virtual time passes its
	// completion time (nothing finishes by itself in virtual time), so
	// depth is still 1 at now and 0 once t=0.2 has passed.
	fmt.Println("in-flight at t=0.0:", q.Depth(now))
	fmt.Println("in-flight at t=0.5:", q.Depth(now+0.5))
	// Output:
	// in-flight at t=0.0: 1
	// in-flight at t=0.5: 0
}

// ExampleController_TryEnqueue shows the combined helper the scheduler
// uses: deadline check plus slot reservation in one call, with a typed
// Reason explaining any refusal. q caches db1's queue across calls, the
// way the scheduler keeps one per replica.
func ExampleController_TryEnqueue() {
	a := admission.NewController(admission.Config{QueueCap: 1, Deadline: 0.5})
	var q *admission.Queue

	// Estimated completion 0.3 s out: within deadline, slot granted.
	fmt.Println("fast query:", reasonOrOK(a.TryEnqueue(&q, "db1", 0, 0.3)))

	// 2 s estimate breaches the 0.5 s deadline — shed before it wastes
	// the slot the first query is still holding.
	fmt.Println("doomed query:", reasonOrOK(a.TryEnqueue(&q, "db1", 0, 2.0)))

	// Within deadline, but the single slot is taken.
	fmt.Println("third query:", reasonOrOK(a.TryEnqueue(&q, "db1", 0, 0.3)))
	// Output:
	// fast query: ok
	// doomed query: deadline
	// third query: queue-full
}

func reasonOrOK(r admission.Reason) string {
	if r == "" {
		return "ok"
	}
	return string(r)
}
