package ledger

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// spinSink keeps the busy loop's result live so the compiler cannot drop
// the loop.
var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestBusyLoopAttributedToOwnPackage profiles a synthetic busy loop in
// this package and checks the ledger charges it to this package's layer,
// not to the runtime, and sees it at its entry point.
func TestBusyLoopAttributedToOwnPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	const fn = "outlierlb/perfbench/ledger.spin"
	l := Attribute(p, "outlierlb/perfbench/", []string{fn})
	if l.Total < 10 {
		t.Fatalf("only %d samples in a 400 ms busy loop", l.Total)
	}
	own := l.Self["ledger"]
	if 2*own <= l.Total {
		t.Errorf("busy loop charged %d of %d samples to its package; ledger %v", own, l.Total, l.Self)
	}
	if cum := l.Cum[fn]; cum < own {
		t.Errorf("entry point %s saw %d samples, its package %d", fn, cum, own)
	}

	// Under a prefix the loop is not part of, every sample is runtime.
	other := Attribute(p, "outlierlb/internal/", nil)
	if got := other.Self[Runtime]; got != other.Total {
		t.Errorf("foreign prefix: runtime holds %d of %d samples", got, other.Total)
	}
}

func TestLayerOf(t *testing.T) {
	const prefix = "outlierlb/internal/"
	for fn, want := range map[string]string{
		"outlierlb/internal/mrc.Compute":                   "mrc",
		"outlierlb/internal/bufferpool.(*Pool).Access":     "bufferpool",
		"outlierlb/internal/workload/tpcw.(*App).Next":     "workload",
		"outlierlb/internal/core.(*Controller).Tick.func1": "core",
		"runtime.mallocgc":                                 "",
		"main.main":                                        "",
		"outlierlb/internalx.F":                            "",
	} {
		if got := LayerOf(fn, prefix); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{{0x0a}, {0xff, 0xff}, []byte("not a profile")} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}
