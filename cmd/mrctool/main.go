// Mrctool computes miss-ratio curves (Mattson's stack algorithm) from
// page-access traces.
//
//	mrctool -in trace.bin -class BestSeller -mem 8192
//	mrctool -gen zipf -span 8000 -skew 1.2 -n 100000
//	mrctool -gen scan -span 7200 -n 100000 -csv
//
// With -in, the trace file must be in the format written by the trace
// package (see cmd/outlierlb -record). Without -class, all classes in the
// file are merged into one stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"outlierlb/internal/mrc"
	"outlierlb/internal/sim"
	"outlierlb/internal/trace"
)

func main() {
	in := flag.String("in", "", "trace file to read (binary trace format)")
	class := flag.String("class", "", "restrict to one query class from the trace file")
	gen := flag.String("gen", "", "synthesize a trace instead: zipf|scan|uniform")
	span := flag.Uint64("span", 8000, "page span of the synthetic generator")
	skew := flag.Float64("skew", 1.2, "zipf skew (>1)")
	n := flag.Int("n", 100000, "number of synthetic accesses")
	seed := flag.Uint64("seed", 1, "generator seed")
	mem := flag.Int("mem", 8192, "server memory in pages (caps curve parameters)")
	threshold := flag.Float64("threshold", mrc.DefaultThreshold, "acceptable-miss-ratio threshold")
	points := flag.Int("points", 32, "number of curve points to print")
	csv := flag.Bool("csv", false, "emit CSV instead of a bar chart")
	flag.Parse()

	pages, err := loadPages(*in, *class, *gen, *span, *skew, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrctool:", err)
		os.Exit(1)
	}
	if len(pages) == 0 {
		fmt.Fprintln(os.Stderr, "mrctool: no page accesses")
		os.Exit(1)
	}

	curve := mrc.Compute(pages)
	params := curve.ParamsFor(*mem, *threshold)
	memAxis, miss := curve.Points(*points)

	if *csv {
		fmt.Println("memory_pages,miss_ratio")
		for i := range memAxis {
			fmt.Printf("%d,%.5f\n", memAxis[i], miss[i])
		}
	} else {
		for i := range memAxis {
			bar := strings.Repeat("#", int(miss[i]*60))
			fmt.Printf("%8d pages | %-60s %.3f\n", memAxis[i], bar, miss[i])
		}
	}
	fmt.Printf("accesses: %d, distinct reuse depth: %d pages\n", curve.Total(), curve.MaxMemory())
	fmt.Printf("total memory needed:  %6d pages (ideal miss ratio %.4f)\n",
		params.TotalMemory, params.IdealMissRatio)
	fmt.Printf("acceptable memory:    %6d pages (acceptable miss ratio %.4f)\n",
		params.AcceptableMemory, params.AcceptableMissRatio)
}

func loadPages(in, class, gen string, span uint64, skew float64, n int, seed uint64) ([]uint64, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			// Fall back to the CSV interchange format.
			if _, serr := f.Seek(0, 0); serr != nil {
				return nil, err
			}
			tr, err = trace.ReadCSV(f)
			if err != nil {
				return nil, err
			}
		}
		if class != "" {
			return tr.Pages(class), nil
		}
		pages := make([]uint64, len(tr))
		for i, a := range tr {
			pages[i] = a.Page
		}
		return pages, nil
	}
	rng := sim.NewRNG(seed)
	var g trace.Generator
	switch gen {
	case "zipf":
		if !(skew > 1) {
			return nil, fmt.Errorf("-gen zipf needs -skew > 1, got %v", skew)
		}
		g = trace.NewZipfSet(rng, 0, span, skew)
	case "scan":
		g = &trace.SequentialScan{Span: span}
	case "uniform":
		g = trace.NewUniformSet(rng, 0, span)
	case "":
		return nil, fmt.Errorf("need -in FILE or -gen zipf|scan|uniform")
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
	if n < 0 {
		return nil, fmt.Errorf("-n must not be negative, got %d", n)
	}
	return trace.Generate(g, n), nil
}
