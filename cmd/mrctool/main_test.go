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
		skew float64
		n    int
		want string
	}{
		{"skew=1", "zipf", 1, 100, "-skew > 1, got 1"},
		{"skew<1", "zipf", 0.5, 100, "-skew > 1, got 0.5"},
		{"skew=NaN", "zipf", math.NaN(), 100, "-skew > 1, got NaN"},
		{"negative-n", "scan", 1.2, -1, "-n must not be negative, got -1"},
		{"negative-n-zipf", "zipf", 1.2, -5, "-n must not be negative, got -5"},
		{"no-source", "", 1.2, 100, "need -in FILE or -gen"},
		{"unknown-gen", "pareto", 1.2, 100, `unknown generator "pareto"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages, err := loadPages("", "", tc.gen, 8000, tc.skew, tc.n, 1)
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
}
