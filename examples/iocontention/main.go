// Iocontention reproduces the paper's §5.5 scenario: two RUBiS instances
// run in two Xen domains on one physical server. Each domain has its own
// buffer pool and its own data — there is no CPU saturation and no
// memory interference — yet both collapse, because every domain's disk
// I/O funnels through the shared driver domain (dom-0). The dom-0
// statistics identify one query class (SearchItemsByRegion) as the
// overwhelming I/O contributor; moving it to another physical machine
// restores the baseline.
//
//	go run ./examples/iocontention
package main

import (
	"fmt"

	"outlierlb/internal/experiments"
)

func main() {
	fmt.Println("two RUBiS instances in two Xen domains on one physical server")
	fmt.Println()
	r := experiments.Options{}.Table3(7)
	fmt.Printf("%-10s %-26s %12s %8s\n", "domain-1", "domain-2", "dom-1 lat(s)", "WIPS")
	for _, row := range r.Rows {
		fmt.Printf("%-10s %-26s %12.3f %8.2f\n", row.Domain1, row.Domain2, row.Latency, row.WIPS)
	}
	fmt.Println()
	fmt.Println("diagnosis from the dom-0 logs during contention:")
	fmt.Printf("  CPU utilization: %.0f%% — not a CPU problem\n", 100*r.CPUUtilization)
	fmt.Printf("  top I/O class:   %s, %.0f%% of its application's page I/O (paper: 87%%)\n",
		r.TopIOClass, 100*r.TopIOShare)
	fmt.Println("  remedy:          reschedule that class onto a different physical machine")
	fmt.Println()
	fmt.Println("paper's measurements: 1.5s/97 WIPS → 4.8s/30 WIPS → 1.5s/95 WIPS")
}
