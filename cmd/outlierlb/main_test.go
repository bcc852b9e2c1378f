package main

import "testing"

func TestCheckRecordFlags(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // "" accepts n
	}{
		{-1, "-record-n must be ≥ 0, got -1"},
		{-5, "-record-n must be ≥ 0, got -5"},
		{0, ""},
		{500000, ""},
	} {
		got := ""
		if err := checkRecordFlags(tc.n); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkRecordFlags(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
