package main

import (
	"math"
	"strings"
	"testing"
)

func TestLoadPagesRejectsBadGeneratorFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  string
		span uint64
		skew float64
		n    int
		want string
	}{
		{"skew=1", "zipf", 8000, 1, 100, "-skew > 1, got 1"},
		{"skew<1", "zipf", 8000, 0.5, 100, "-skew > 1, got 0.5"},
		{"skew=NaN", "zipf", 8000, math.NaN(), 100, "-skew > 1, got NaN"},
		{"negative-n", "scan", 8000, 1.2, -1, "-n must not be negative, got -1"},
		{"negative-n-zipf", "zipf", 8000, 1.2, -5, "-n must not be negative, got -5"},
		{"no-source", "", 8000, 1.2, 100, "need -in FILE or -gen"},
		{"unknown-gen", "pareto", 8000, 1.2, 100, `unknown generator "pareto"`},
		{"uniform-span=2^63", "uniform", 1 << 63, 1.2, 10, "-gen uniform needs -span ≤ 9223372036854775807, got 9223372036854775808"},
		{"uniform-span=max", "uniform", math.MaxUint64, 1.2, 10, "got 18446744073709551615"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages, err := loadPages("", "", tc.gen, tc.span, tc.skew, tc.n, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadPages: %d pages, error %v; want an error containing %q", len(pages), err, tc.want)
			}
		})
	}
}

func TestLoadPagesGenerates(t *testing.T) {
	for _, gen := range []string{"zipf", "scan", "uniform"} {
		pages, err := loadPages("", "", gen, 8000, 1.2, 1000, 1)
		if err != nil || len(pages) != 1000 {
			t.Fatalf("-gen %s: %d pages, error %v; want 1000 pages", gen, len(pages), err)
		}
	}
	// The largest span -gen uniform accepts still draws.
	pages, err := loadPages("", "", "uniform", math.MaxInt64, 1.2, 10, 1)
	if err != nil || len(pages) != 10 {
		t.Fatalf("-gen uniform -span MaxInt64: %d pages, error %v; want 10 pages", len(pages), err)
	}
}

func TestCheckCurveFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mem       int
		threshold float64
		want      string
	}{
		{"threshold=NaN", 8192, math.NaN(), "-threshold must be in (0, 1), got NaN"},
		{"threshold=-1", 8192, -1, "-threshold must be in (0, 1), got -1"},
		{"threshold=0", 8192, 0, "-threshold must be in (0, 1), got 0"},
		{"threshold=1", 8192, 1, "-threshold must be in (0, 1), got 1"},
		{"threshold=+Inf", 8192, math.Inf(1), "-threshold must be in (0, 1), got +Inf"},
		{"mem=-5", -5, 0.02, "-mem must not be negative, got -5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkCurveFlags(tc.mem, tc.threshold); err == nil || err.Error() != tc.want {
				t.Fatalf("checkCurveFlags(%d, %v) = %v, want %q", tc.mem, tc.threshold, err, tc.want)
			}
		})
	}
	// -mem 0 means uncapped, and any threshold strictly inside (0, 1)
	// is accepted.
	for _, tc := range []struct {
		mem       int
		threshold float64
	}{{8192, 0.02}, {0, 0.02}, {1, 0.999}} {
		if err := checkCurveFlags(tc.mem, tc.threshold); err != nil {
			t.Errorf("checkCurveFlags(%d, %v) = %v, want nil", tc.mem, tc.threshold, err)
		}
	}
}
