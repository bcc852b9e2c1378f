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
	buf := metrics.NewLogBuffer(3, metrics.Drain(c))

	id := metrics.ClassID{App: "shop", Class: "Report"}
	for i := 0; i < 7; i++ {
		buf.Append(metrics.Record{Kind: metrics.RecQuery, Class: id, Value: 0.010})
	}
	fmt.Printf("batched flushes: %d, still buffered: %d\n", buf.Flushes(), buf.Len())

	buf.Flush() // thread shutdown: deliver the partial batch
	snap := c.Snapshot(1.0)
	fmt.Printf("queries this interval: %.0f\n", snap[id].Get(metrics.Throughput))
	// Output:
	// batched flushes: 2, still buffered: 1
	// queries this interval: 7
}
