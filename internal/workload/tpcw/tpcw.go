// Package tpcw models the TPC-W e-commerce benchmark (an on-line book
// store) as a set of query classes over a synthetic page space, with the
// shopping mix (~20% writes) the paper uses.
//
// The real benchmark runs 14 web interactions against a 4 GB MySQL
// database (100K items, 2.88M customers). This model reproduces the
// properties the paper's experiments depend on:
//
//   - a per-interaction query class with a distinctive page-access
//     pattern and CPU demand;
//   - a BestSeller class whose plan depends on the O_DATE index: with the
//     index it touches a bounded working set of recent order lines; with
//     the index dropped it scans the order-line table, issuing many more
//     page accesses, long sequential runs (hence read-ahead), and showing
//     a flatter miss-ratio curve with a smaller acceptable memory;
//   - working-set sizes positioned relative to the paper's 8192-page
//     (128 MB) buffer pool so that TPC-W alone meets its SLA but a
//     co-located second application causes memory interference.
//
// Concurrency: like internal/workload/rubis, an application value's
// class specs carry stateful single-owner page generators (see
// internal/trace); build one per testbed.
package tpcw

import (
	"outlierlb/internal/cluster"
	"outlierlb/internal/engine"
	"outlierlb/internal/metrics"
	"outlierlb/internal/sim"
	"outlierlb/internal/sla"
	"outlierlb/internal/trace"
	"outlierlb/internal/workload"
)

// AppName is the application identifier.
const AppName = "tpcw"

// Synthetic page-space layout (16 KiB pages; the real DB is ~4 GB =
// ~262K pages). Regions are disjoint so per-table access patterns stay
// distinguishable.
const (
	ItemBase       = 0
	ItemPages      = 12000
	CustomerBase   = 100000
	CustomerPages  = 60000
	OrderBase      = 200000
	OrderPages     = 40000
	OrderLineBase  = 300000
	OrderLinePages = 80000
)

// DefaultThinkTime is the mean client think time in seconds.
const DefaultThinkTime = 7.0

// BestSellerClass is the query class at the center of the §5.3
// experiment.
const BestSellerClass = "BestSeller"

// Options configures the application model.
type Options struct {
	// DropODateIndex simulates dropping the O_DATE index (§5.3): the
	// BestSeller plan degrades to an order-line scan.
	DropODateIndex bool
}

// classDef is the static description of one interaction's query class;
// page counts, CPU demands and access patterns live in pattern.
type classDef struct {
	name   string
	weight float64 // shopping-mix share, percent
	write  bool
}

// shoppingMix is the TPC-W shopping mix: weights sum to ~100 with ~19%
// writes (the paper's "20% writes" configuration).
var shoppingMix = []classDef{
	{name: "Home", weight: 14.76},
	{name: "NewProducts", weight: 4.92},
	{name: BestSellerClass, weight: 4.58},
	{name: "ProductDetail", weight: 16.86},
	{name: "SearchRequest", weight: 19.40},
	{name: "SearchResults", weight: 16.76},
	{name: "ShoppingCart", weight: 11.60, write: true},
	{name: "CustomerRegistration", weight: 3.08, write: true},
	{name: "BuyRequest", weight: 2.60, write: true},
	{name: "BuyConfirm", weight: 1.20, write: true},
	{name: "OrderInquiry", weight: 0.75},
	{name: "OrderDisplay", weight: 0.25},
	{name: "AdminRequest", weight: 0.10},
	{name: "AdminConfirm", weight: 0.09, write: true},
}

// pattern builds the page-access generator for one class. Patterns skew
// toward the front of each region, so classes over the same table share a
// hot front, as index-clustered OLTP access does.
func pattern(rng *sim.RNG, name string, opts Options) (trace.Generator, int, float64) {
	switch name {
	case "Home":
		return trace.NewZipfSet(rng, ItemBase, 2000, 1.6), 6, 0.004
	case "NewProducts":
		return trace.NewZipfSet(rng, ItemBase, 5000, 1.15), 40, 0.015
	case BestSellerClass:
		if opts.DropODateIndex {
			// Without the O_DATE index the plan scans the order-line
			// table: long sequential runs over the full region mixed with
			// item lookups. Much larger page count, flatter MRC.
			// Calibrated so the MRC's acceptable memory ≈ 3695 pages at an
			// 8192-page server (the paper's measured quota for the
			// unindexed BestSeller).
			scan := &trace.SequentialScan{Base: OrderLineBase, Span: OrderLinePages}
			hot := trace.NewZipfSet(rng, OrderLineBase, 12000, 1.22)
			mix, err := trace.NewMixture(rng, []trace.Generator{scan, hot},
				[]float64{0.7, 0.3}, 64)
			if err != nil {
				panic(err) // static construction cannot fail
			}
			return mix, 700, 0.050
		}
		// Indexed plan: bounded working set of recent order lines,
		// calibrated so acceptable memory ≈ 6982 pages (the paper's
		// figure) — a near-linear MRC over ~7200 pages.
		return trace.NewUniformSet(rng, OrderLineBase, 7200), 120, 0.025
	case "ProductDetail":
		return trace.NewZipfSet(rng, ItemBase, 6000, 1.4), 6, 0.005
	case "SearchRequest":
		return trace.NewZipfSet(rng, ItemBase, 1000, 1.8), 2, 0.003
	case "SearchResults":
		return trace.NewZipfSet(rng, ItemBase, 5000, 1.25), 60, 0.020
	case "ShoppingCart":
		return trace.NewZipfSet(rng, ItemBase, 6000, 1.5), 8, 0.008
	case "CustomerRegistration":
		return trace.NewUniformSet(rng, CustomerBase, CustomerPages), 4, 0.005
	case "BuyRequest":
		return trace.NewZipfSet(rng, CustomerBase, 4000, 1.4), 6, 0.010
	case "BuyConfirm":
		return trace.NewZipfSet(rng, OrderBase, 4000, 1.4), 10, 0.015
	case "OrderInquiry":
		return trace.NewZipfSet(rng, CustomerBase, 4000, 1.5), 2, 0.003
	case "OrderDisplay":
		return trace.NewZipfSet(rng, OrderBase, 4000, 1.3), 8, 0.008
	case "AdminRequest":
		return trace.NewZipfSet(rng, ItemBase, 1000, 1.5), 4, 0.005
	case "AdminConfirm":
		return trace.NewZipfSet(rng, ItemBase, 6000, 1.2), 30, 0.020
	}
	return nil, 0, 0
}

// ClassID returns the metrics identifier of a TPC-W class.
func ClassID(name string) metrics.ClassID {
	return metrics.ClassID{App: AppName, Class: name}
}

// New builds the TPC-W application. Each call derives independent
// generator streams from rng, so two replicas or two experiments never
// share generator state.
func New(rng *sim.RNG, opts Options) *cluster.Application {
	app := &cluster.Application{Name: AppName, SLA: sla.Default()}
	for _, def := range shoppingMix {
		gen, pages, cpu := pattern(rng.Fork(), def.name, opts)
		app.Classes = append(app.Classes, engine.ClassSpec{
			ID:            ClassID(def.name),
			CPUPerQuery:   cpu,
			CPUPerPage:    0.00002,
			PagesPerQuery: pages,
			Pattern:       gen,
			Write:         def.write,
		})
	}
	return app
}

// MixKind selects one of TPC-W's three standard interaction mixes.
type MixKind int

// The TPC-W mixes: browsing (~5% ordering), shopping (~20%, the paper's
// choice, "considered the most representative e-commerce workload by the
// TPC"), and ordering (~50%).
const (
	Shopping MixKind = iota
	Browsing
	Ordering
)

// mixWeights maps each mix kind to per-class weight overrides; classes
// absent from the map keep their shopping-mix weight.
var mixWeights = map[MixKind]map[string]float64{
	Browsing: {
		"Home": 29.00, "NewProducts": 11.00, BestSellerClass: 11.00,
		"ProductDetail": 21.00, "SearchRequest": 12.00, "SearchResults": 11.00,
		"ShoppingCart": 2.00, "CustomerRegistration": 0.82, "BuyRequest": 0.75,
		"BuyConfirm": 0.69, "OrderInquiry": 0.30, "OrderDisplay": 0.25,
		"AdminRequest": 0.10, "AdminConfirm": 0.09,
	},
	Ordering: {
		"Home": 9.12, "NewProducts": 0.46, BestSellerClass: 0.46,
		"ProductDetail": 12.35, "SearchRequest": 14.53, "SearchResults": 13.08,
		"ShoppingCart": 13.53, "CustomerRegistration": 12.86, "BuyRequest": 12.73,
		"BuyConfirm": 10.18, "OrderInquiry": 0.25, "OrderDisplay": 0.22,
		"AdminRequest": 0.12, "AdminConfirm": 0.11,
	},
}

// Mix returns the shopping-mix interaction weights for the emulator.
func Mix() []workload.MixEntry { return MixFor(Shopping) }

// MixFor returns the interaction weights of the chosen standard mix.
func MixFor(kind MixKind) []workload.MixEntry {
	overrides := mixWeights[kind]
	out := make([]workload.MixEntry, 0, len(shoppingMix))
	for _, def := range shoppingMix {
		w := def.weight
		if o, ok := overrides[def.name]; ok {
			w = o
		}
		out = append(out, workload.MixEntry{ID: ClassID(def.name), Weight: w})
	}
	return out
}

// WriteFraction reports the share of write interactions in a mix.
func WriteFraction(kind MixKind) float64 {
	byName := make(map[string]bool, len(shoppingMix))
	for _, def := range shoppingMix {
		byName[def.name] = def.write
	}
	w, total := 0.0, 0.0
	for _, e := range MixFor(kind) {
		total += e.Weight
		if byName[e.ID.Class] {
			w += e.Weight
		}
	}
	return w / total
}

// ClassNames lists the interaction names in mix order.
func ClassNames() []string {
	out := make([]string, len(shoppingMix))
	for i, def := range shoppingMix {
		out[i] = def.name
	}
	return out
}
