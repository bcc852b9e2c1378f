package obscli

import (
	"math"
	"testing"

	"outlierlb/internal/ctrlnet"
)

func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		link   ctrlnet.Config
		sample float64
		ring   int
		want   string
	}{
		{"drop=1.5", ctrlnet.Config{Drop: 1.5}, 0, 0, "-ctrl.drop must be in [0, 1), got 1.5"},
		{"drop=1", ctrlnet.Config{Drop: 1}, 0, 0, "-ctrl.drop must be in [0, 1), got 1"},
		{"drop=-0.1", ctrlnet.Config{Drop: -0.1}, 0, 0, "-ctrl.drop must be in [0, 1), got -0.1"},
		{"drop=NaN", ctrlnet.Config{Drop: nan}, 0, 0, "-ctrl.drop must be in [0, 1), got NaN"},
		{"dup=1", ctrlnet.Config{Dup: 1}, 0, 0, "-ctrl.dup must be in [0, 1), got 1"},
		{"dup=NaN", ctrlnet.Config{Dup: nan}, 0, 0, "-ctrl.dup must be in [0, 1), got NaN"},
		{"latency=-1", ctrlnet.Config{Latency: -1}, 0, 0, "-ctrl.latency must be finite and ≥ 0, got -1"},
		{"latency=NaN", ctrlnet.Config{Latency: nan}, 0, 0, "-ctrl.latency must be finite and ≥ 0, got NaN"},
		{"latency=+Inf", ctrlnet.Config{Latency: inf}, 0, 0, "-ctrl.latency must be finite and ≥ 0, got +Inf"},
		{"jitter=-0.5", ctrlnet.Config{Jitter: -0.5}, 0, 0, "-ctrl.jitter must be finite and ≥ 0, got -0.5"},
		{"jitter=NaN", ctrlnet.Config{Jitter: nan}, 0, 0, "-ctrl.jitter must be finite and ≥ 0, got NaN"},
		{"jitter=+Inf", ctrlnet.Config{Jitter: inf}, 0, 0, "-ctrl.jitter must be finite and ≥ 0, got +Inf"},
		{"sample=NaN", ctrlnet.Config{}, nan, 0, "-trace.sample must be in [0, 1], got NaN"},
		{"sample=1.5", ctrlnet.Config{}, 1.5, 0, "-trace.sample must be in [0, 1], got 1.5"},
		{"sample=-0.1", ctrlnet.Config{}, -0.1, 0, "-trace.sample must be in [0, 1], got -0.1"},
		{"ring=-1", ctrlnet.Config{}, 0, -1, "-trace.ring must be ≥ 0, got -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckFlags(tc.link, tc.sample, tc.ring); err == nil || err.Error() != tc.want {
				t.Fatalf("CheckFlags(%+v, %v, %d) = %v, want %q", tc.link, tc.sample, tc.ring, err, tc.want)
			}
		})
	}
	// The defaults and every range's inclusive ends are accepted.
	for _, tc := range []struct {
		link   ctrlnet.Config
		sample float64
		ring   int
	}{
		{ctrlnet.Config{}, 0, 0},
		{ctrlnet.Config{Latency: 0.05, Jitter: 0.01, Drop: 0.2, Dup: 0.05}, 1, 512},
		{ctrlnet.Config{Latency: math.MaxFloat64, Jitter: math.MaxFloat64, Drop: 0.999, Dup: 0.999}, 0.5, 1},
	} {
		if err := CheckFlags(tc.link, tc.sample, tc.ring); err != nil {
			t.Errorf("CheckFlags(%+v, %v, %d) = %v, want nil", tc.link, tc.sample, tc.ring, err)
		}
	}
}
