package bufferpool

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// hookCall is one OnMiss or OnFlush invocation.
type hookCall struct {
	flush bool
	class string
	pages int
}

// TestDifferentialAgainstReference drives Pool and the container/list
// reference model (reference_test.go) with the same seeded random
// operations and requires identical observable behaviour after every
// operation: results, per-class statistics, occupancy, dirty pages,
// quotas and the exact sequence of I/O hook calls.
func TestDifferentialAgainstReference(t *testing.T) {
	classes := []string{"a", "b", "c", "d"}
	for _, mid := range []float64{0, 0.375} {
		for _, readAhead := range []int{0, 3} {
			cfg := Config{Capacity: 64, MidpointFraction: mid, ReadAheadRun: readAhead, ReadAheadPages: 8}
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("midpoint=%v/readahead=%d/seed=%d", mid, readAhead, seed)
				t.Run(name, func(t *testing.T) {
					runDifferential(t, cfg, classes, seed, 4000)
				})
			}
		}
	}
}

func runDifferential(t *testing.T, cfg Config, classes []string, seed int64, ops int) {
	got := MustNew(cfg)
	want, err := newRefPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotCalls, wantCalls []hookCall
	got.OnMiss(func(c string, n int) { gotCalls = append(gotCalls, hookCall{false, c, n}) })
	got.OnFlush(func(c string, n int) { gotCalls = append(gotCalls, hookCall{true, c, n}) })
	want.OnMiss(func(c string, n int) { wantCalls = append(wantCalls, hookCall{false, c, n}) })
	want.OnFlush(func(c string, n int) { wantCalls = append(wantCalls, hookCall{true, c, n}) })

	rng := rand.New(rand.NewSource(seed))
	cursor := make(map[string]uint64)
	// nextPage mixes sequential runs (read-ahead triggers) with random
	// pages from a range every class shares, so classes hit each other's
	// pages in the shared partition and migrations find mixed owners.
	nextPage := func(class string) uint64 {
		if rng.Intn(2) == 0 {
			cursor[class]++
		} else {
			cursor[class] = uint64(rng.Intn(150))
		}
		return cursor[class]
	}
	for op := 0; op < ops; op++ {
		class := classes[rng.Intn(len(classes))]
		var what string
		switch r := rng.Intn(100); {
		case r < 55:
			pg := nextPage(class)
			what = fmt.Sprintf("Access(%q, %d)", class, pg)
			if g, w := got.Access(class, pg), want.Access(class, pg); g != w {
				t.Fatalf("op %d %s = %+v, reference %+v", op, what, g, w)
			}
			if g, w := got.Contains(class, pg), want.Contains(class, pg); g != w {
				t.Fatalf("op %d after %s: Contains = %v, reference %v", op, what, g, w)
			}
		case r < 85:
			pg := nextPage(class)
			what = fmt.Sprintf("Write(%q, %d)", class, pg)
			if g, w := got.Write(class, pg), want.Write(class, pg); g != w {
				t.Fatalf("op %d %s = %+v, reference %+v", op, what, g, w)
			}
		case r < 93:
			// A quota of 0, a small one, or one that may not fit; a class
			// that already has a quota is resized.
			q := []int{0, 1 + rng.Intn(12), rng.Intn(48)}[rng.Intn(3)]
			what = fmt.Sprintf("SetQuota(%q, %d)", class, q)
			g, w := got.SetQuota(class, q), want.SetQuota(class, q)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("op %d %s error = %v, reference %v", op, what, g, w)
			}
		case r < 97:
			what = fmt.Sprintf("RemoveQuota(%q)", class)
			got.RemoveQuota(class)
			want.RemoveQuota(class)
		default:
			what = "FlushAll()"
			if g, w := got.FlushAll(), want.FlushAll(); g != w {
				t.Fatalf("op %d %s = %d, reference %d", op, what, g, w)
			}
		}
		if !slices.Equal(gotCalls, wantCalls) {
			t.Fatalf("op %d %s: hook calls %v, reference %v", op, what, gotCalls, wantCalls)
		}
		gotCalls, wantCalls = gotCalls[:0], wantCalls[:0]
		for _, c := range classes {
			if g, w := got.Stats(c), want.Stats(c); g != w {
				t.Fatalf("op %d after %s: Stats(%q) = %+v, reference %+v", op, what, c, g, w)
			}
			gq, gok := got.Quota(c)
			wq, wok := want.Quota(c)
			if gq != wq || gok != wok {
				t.Fatalf("op %d after %s: Quota(%q) = %d,%v, reference %d,%v", op, what, c, gq, gok, wq, wok)
			}
		}
		if g, w := got.TotalStats(), want.TotalStats(); g != w {
			t.Fatalf("op %d after %s: TotalStats = %+v, reference %+v", op, what, g, w)
		}
		if g, w := got.Resident(), want.Resident(); g != w {
			t.Fatalf("op %d after %s: Resident = %d, reference %d", op, what, g, w)
		}
		if g, w := got.DirtyPages(), want.DirtyPages(); g != w {
			t.Fatalf("op %d after %s: DirtyPages = %d, reference %d", op, what, g, w)
		}
		if g, w := got.SharedCapacity(), want.SharedCapacity(); g != w {
			t.Fatalf("op %d after %s: SharedCapacity = %d, reference %d", op, what, g, w)
		}
	}
}
