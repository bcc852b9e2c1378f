// Command perfbench is the repository's end-to-end benchmark: it runs
// one paper scenario workload repeatedly inside a time budget, checks
// every run against the scenario's own acceptance properties, and prints
// simulated queries per CPU-second plus host cost, or (with -trace 1) a
// CPU-profiled per-layer ledger. See README.md in this directory.
//
// Usage (from the repository root, via run.sh which builds it):
//
//	bash perfbench/run.sh --workload fig3-provisioning --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"sim_qps": {"value": 52011.3, "unit": "1/s"}, ...}}
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"outlierlb/internal/mrc"
	"outlierlb/internal/sla"
	"outlierlb/perfbench/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (fig3-provisioning, olap-antagonist, overload-sweep)")
	seed := fs.Uint64("seed", 1, "benchmark seed; scenario seeds are derived from it")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the CPU-profiled per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}

	b := &bench{
		w: w, seeds: w.seeds(*seed), out: stdout,
		deadline: time.Now().Add(time.Duration(*seconds) * time.Second),
		probe:    newProbe(),
	}
	defer b.probe.close()
	b.printEnv()

	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.timed()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	line, err := json.Marshal(res.doc())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// bench runs one workload's repetitions inside the time budget.
type bench struct {
	w        workload
	seeds    []uint64
	out      io.Writer
	deadline time.Time
	probe    *probe
}

// rep is one repetition: every scenario seed of the workload, once.
type rep struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	peakHeap   uint64
	counters   counters
	series     [][]byte // per call
	primary    []sla.Interval
	calls      int
	failed     int
	failures   []string
	ledger     ledger.Ledger // traced repetitions only
}

// setupProbes is how many set-ups a run times for setup_s, each
// abandoned at its first arrival. Each starts as in a fresh process:
// after a collection that hands every free page back to the operating
// system, so it pays for faulting in the memory it touches and for the
// collections its allocations start. It is timed in process CPU seconds
// (all threads, so background GC work counts), which leave out the time
// the vCPU is descheduled. Left to the runtime instead, how many freed
// pages the scavenger had returned varies, and so does the median.
const setupProbes = 61

func (b *bench) probeSetups() []float64 {
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		debug.FreeOSMemory()
		cpu0 := cpuSeconds()
		b.probe.setupOnly(func() { b.w.run(b.seeds[0]) })
		out = append(out, cpuSeconds()-cpu0)
	}
	return out
}

// profileHz is the traced repetitions' sampling rate: five times the
// pprof default, so layers with a few percent of the time still collect
// dozens of samples in one repetition.
const profileHz = 500

// runRep runs one repetition, profiling it when traced.
func (b *bench) runRep(traced bool) (rep, error) {
	var r rep
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		// pprof.StartCPUProfile asks for 100 Hz and, finding a rate already
		// set, keeps this one (printing a one-line notice to stderr); the
		// profile records the rate it actually ran at.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	alloc0, cpu0, t0 := heapAllocs(), cpuSeconds(), time.Now()
	for _, seed := range b.seeds {
		b.probe.reset(false)
		o := b.w.run(seed)
		r.counters.add(b.probe.collect(o.shed))
		r.peakHeap = max(r.peakHeap, b.probe.peakHeap)
		r.series = append(r.series, o.series)
		r.primary = append(r.primary, o.primary...)
		r.calls++
		if len(o.failures) > 0 {
			r.failed++
			r.failures = append(r.failures, o.failures...)
		}
	}
	r.wall = time.Since(t0).Seconds()
	r.cpu = cpuSeconds() - cpu0
	r.allocBytes = heapAllocs() - alloc0
	if traced {
		pprof.StopCPUProfile()
		p, err := ledger.Parse(prof.Bytes())
		if err != nil {
			return r, err
		}
		r.ledger = ledger.Attribute(p, modulePrefix, entryFuncs())
	}
	if r.counters.Completed == 0 {
		return r, errors.New("a repetition completed no queries")
	}
	return r, nil
}

// sameAs checks that r reproduced ref exactly: the counters and every
// call's interval/action series. A mismatch fails r's calls.
func (r *rep) sameAs(ref *rep, what string) {
	if r.counters != ref.counters {
		r.fail(fmt.Sprintf("%s: exact counters %+v differ from the first repetition's %+v", what, r.counters, ref.counters))
		return
	}
	for i := range r.series {
		if !bytes.Equal(r.series[i], ref.series[i]) {
			r.fail(fmt.Sprintf("%s: call %d's interval/action series differ from the first repetition's", what, i+1))
			return
		}
	}
}

func (r *rep) fail(msg string) {
	r.failed = r.calls
	r.failures = append(r.failures, msg)
}

// more reports whether another step of est seconds fits the budget.
func (b *bench) more(est float64) bool {
	return time.Until(b.deadline).Seconds() >= est
}

// timed runs untraced repetitions until the budget is spent (at least
// two, so the exact counters can be checked for repetition).
func (b *bench) timed() (result, error) {
	setups := b.probeSetups()
	var reps []rep
	for len(reps) < 2 || b.more(median(walls(reps))) {
		r, err := b.runRep(false)
		if err != nil {
			return result{}, err
		}
		if len(reps) > 0 {
			r.sameAs(&reps[0], fmt.Sprintf("repetition %d", len(reps)+1))
		}
		b.printRep("untraced", len(reps)+1, &r)
		reps = append(reps, r)
	}
	res := newResult(reps)
	q1, q3 := quartiles(setups)
	fmt.Fprintf(b.out, "setup: n=%d median=%.6fs q1=%.6fs q3=%.6fs (CPU seconds, OS-fresh memory)\n",
		len(setups), median(setups), q1, q3)
	b.printNoise(reps, setups)
	res.endToEnd(reps, setups)
	return res, nil
}

// traced alternates untraced and profiled repetitions of the same
// seeds until the budget is spent (at least one of each). The profiled
// ones must reproduce the untraced series byte for byte.
func (b *bench) traced() (result, error) {
	var plain, prof []rep
	for len(plain) == 0 || b.more(median(walls(plain))+median(walls(prof))) {
		for _, traced := range []bool{false, true} {
			r, err := b.runRep(traced)
			if err != nil {
				return result{}, err
			}
			if len(plain) > 0 {
				r.sameAs(&plain[0], fmt.Sprintf("traced=%v repetition", traced))
			}
			if traced {
				b.printRep("traced", len(prof)+1, &r)
				prof = append(prof, r)
			} else {
				b.printRep("untraced", len(plain)+1, &r)
				plain = append(plain, r)
			}
		}
	}
	b.printNoise(plain, nil)
	lg := foldLedger(prof)
	b.printLedger(lg)
	res := newResult(append(plain, prof...))
	res.perLayer(plain, prof, lg, mrcKernel(b.probe.windows()))
	return res, nil
}

// mrcKernel times the public mrc.Compute over the given access windows
// and returns microseconds per thousand accesses (median of passes).
func mrcKernel(windows [][]uint64) float64 {
	var accesses int
	for _, w := range windows {
		accesses += len(w)
	}
	if accesses == 0 {
		return 0
	}
	var perPass []float64
	var curves int
	start := time.Now()
	for len(perPass) < 3 || (len(perPass) < 50 && time.Since(start) < time.Second) {
		t0 := time.Now()
		for _, w := range windows {
			if mrc.Compute(w).Total() > 0 {
				curves++
			}
		}
		perPass = append(perPass, time.Since(t0).Seconds()*1e6/float64(accesses)*1e3)
	}
	if curves == 0 {
		return 0
	}
	return median(perPass)
}

func walls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = reps[i].wall
	}
	return out
}

func cpus(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = reps[i].cpu
	}
	return out
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user+system CPU time, all threads
// included (GC workers and any background goroutine).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// printEnv records where the numbers come from.
func (b *bench) printEnv() {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	fmt.Fprintf(b.out, "env: workload=%s scenario_seeds=%v commit=%s go=%s gomaxprocs=%d nproc=%d\n",
		b.w.name, b.seeds, commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func (b *bench) printRep(kind string, i int, r *rep) {
	fmt.Fprintf(b.out, "rep: %s #%d wall=%.3fs cpu=%.3fs queries=%d cpu_qps=%.0f alloc=%.0fMB peak_heap=%.1fMiB failed=%d/%d\n",
		kind, i, r.wall, r.cpu, r.counters.Completed, float64(r.counters.Completed)/r.cpu,
		float64(r.allocBytes)/1e6, float64(r.peakHeap)/(1<<20), r.failed, r.calls)
}

// printNoise reports the spread of this run's repetitions against the
// bound of the throughput they feed, and that of the set-up batches (if
// any) against setup_s's: a host noisier than a bound, or a single
// repetition, cannot resolve it. The wall-time spread and the CPU share
// of wall time show how much of the noise was the vCPU being
// descheduled.
func (b *bench) printNoise(reps []rep, setups []float64) {
	cs, ws := cpus(reps), walls(reps)
	spread, bound := relIQR(cs), specBound("sim_qps")
	resolved := len(reps) >= 2 && spread <= bound
	var setup string
	if len(setups) > 0 {
		sp, sb := relIQR(setups), specBound("setup_s")
		resolved = resolved && sp <= sb
		setup = fmt.Sprintf(" setup iqr/median=%.3f bound=%.2f", sp, sb)
	}
	verdict := "resolved"
	if !resolved {
		verdict = "unresolved"
	}
	var cpu, wall float64
	for i := range reps {
		cpu += cs[i]
		wall += ws[i]
	}
	fmt.Fprintf(b.out, "noise: n=%d cpu_s median=%.3f iqr/median=%.3f wall_s median=%.3f iqr/median=%.3f cpu/wall=%.2f bound=%.2f%s -> %s\n",
		len(reps), median(cs), spread, median(ws), relIQR(ws), cpu/wall, bound, setup, verdict)
}
