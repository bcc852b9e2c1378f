// Consolidation reproduces the paper's §5.4 scenario: TPC-W runs alone
// inside one database engine and meets its SLA; a RUBiS instance is then
// consolidated into the same engine, sharing the 8192-page buffer pool,
// and TPC-W collapses. The controller pinpoints the newly-added
// SearchItemsByRegion query class — whose acceptable memory (~7900
// pages) cannot be co-located with TPC-W's BestSeller (~6982 pages) —
// and reschedules just that class onto a different replica.
//
//	go run ./examples/consolidation
package main

import (
	"fmt"

	"outlierlb/internal/experiments"
)

func main() {
	fmt.Println("consolidating RUBiS into TPC-W's database engine (shared 8192-page pool)")
	fmt.Println()
	r := experiments.Options{}.Table2(7)
	fmt.Printf("%-38s %12s %8s\n", "configuration", "TPC-W lat(s)", "WIPS")
	for _, row := range r.Rows {
		fmt.Printf("%-38s %12.3f %8.2f\n", row.Placement, row.Latency, row.WIPS)
	}
	fmt.Println()
	fmt.Println("what the controller did:")
	for _, a := range r.Actions {
		fmt.Println(" ", a)
	}
	fmt.Println()
	fmt.Printf("the class it moved: %s — exactly the class the paper's analysis moves.\n", r.MovedClass)
	fmt.Println("paper's measurements: 0.54s/6.57 WIPS → 5.42s/4.29 WIPS → 1.27s/6.44 WIPS")
}
