package metrics_test

import (
	"fmt"

	"outlierlb/internal/metrics"
)

// A database thread logs events into its private buffer; full buffers
// flush as whole batches, so the collector's lock is touched once per
// batch, not once per event.
func ExampleLogBuffer() {
	c := metrics.NewCollector()
	buf := metrics.NewLogBuffer(3, c.Apply)

	id := metrics.ClassID{App: "shop", Class: "Report"}
	slot := c.SlotFor(id)
	for i := 0; i < 7; i++ {
		buf.Append(metrics.Record{Kind: metrics.RecQuery, Slot: slot, Value: 0.010})
	}
	fmt.Printf("batched flushes: %d, still buffered: %d\n", buf.Flushes(), buf.Len())

	buf.Flush() // thread shutdown: deliver the partial batch
	snap := c.Snapshot(1.0, false)
	fmt.Printf("queries this interval: %.0f\n", snap[id].Vector.Get(metrics.Throughput))
	// Output:
	// batched flushes: 2, still buffered: 1
	// queries this interval: 7
}
