package main

import (
	"math"
	"testing"
)

func TestCheckGateFlags(t *testing.T) {
	for _, tc := range []struct {
		tol, budget float64
		want        string // "" accepts the pair
	}{
		{math.NaN(), 300, "-tol must be ≥ 0, got NaN"},
		{-0.3, 300, "-tol must be ≥ 0, got -0.3"},
		{0.3, math.NaN(), "-assert.budget must be ≥ 0, got NaN"},
		{0.3, -1, "-assert.budget must be ≥ 0, got -1"},
		{0.3, 300, ""},
		{0, 0, ""},
	} {
		got := ""
		if err := checkGateFlags(tc.tol, tc.budget); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkGateFlags(%v, %v) = %q, want %q", tc.tol, tc.budget, got, tc.want)
		}
	}
}
