// Package obscli wires the observability layer into the command-line
// tools: it turns the -v, -obs.*, -trace.*, -ctrl.*, -wl.* and
// -sig.store flags into the experiments.Options a run is called on (a
// Recorder as its observer, a tracer, the control-link defaults, the
// arrival and replay hooks), optionally serves the debug endpoints, and
// gates live diagnosis so the (single-threaded) controller is only read
// once the simulation has finished.
//
// Concurrency: the HTTP server runs concurrently with the simulation,
// but it only touches the concurrent-safe surfaces of internal/obs; the
// controller and cluster objects are single-owner, which is why live
// diagnosis is gated until the run completes.
package obscli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/experiments"
	"outlierlb/internal/obs"
	"outlierlb/internal/sim"
	"outlierlb/internal/wltemporal"
)

// EventLogCapacity is how many decision-trace events the tools retain.
const EventLogCapacity = 4096

// FlagWasSet reports whether the named flag was passed explicitly on
// the command line (call after flag.Parse). Modes that would silently
// ignore a flag use this to refuse it even when the explicit value
// matches the default.
func FlagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// CtrlFlags is the shared -ctrl.* flag set: the control channel's
// default link characteristics. Registered here so every tool documents
// the flags identically and the suites can reject the whole family by
// name.
type CtrlFlags struct {
	latency *float64
	jitter  *float64
	drop    *float64
	dup     *float64
}

// ctrlFlagNames is every flag RegisterCtrlFlags defines, for AnySet.
var ctrlFlagNames = []string{"ctrl.latency", "ctrl.jitter", "ctrl.drop", "ctrl.dup"}

// RegisterCtrlFlags registers the shared -ctrl.* flags. The caller
// applies the parsed values with Apply after flag.Parse.
func RegisterCtrlFlags() *CtrlFlags {
	return &CtrlFlags{
		latency: flag.Float64("ctrl.latency", 0, "control channel: one-way delivery latency in seconds, finite and ≥ 0"),
		jitter:  flag.Float64("ctrl.jitter", 0, "control channel: uniform latency jitter in seconds, finite and ≥ 0"),
		drop:    flag.Float64("ctrl.drop", 0, "control channel: message loss probability in [0, 1)"),
		dup:     flag.Float64("ctrl.dup", 0, "control channel: message duplication probability in [0, 1)"),
	}
}

// Apply sets the run's control-link defaults from the parsed -ctrl.*
// values, so every testbed the run builds uses them.
func (c *CtrlFlags) Apply(o *experiments.Options) {
	o.CtrlLink = ctrlnet.Config{Latency: *c.latency, Jitter: *c.jitter, Drop: *c.drop, Dup: *c.dup}
}

// CheckFlags reports the first shared flag whose value lies outside its
// documented range: -ctrl.latency and -ctrl.jitter must be finite and
// ≥ 0, -ctrl.drop and -ctrl.dup in [0, 1), -trace.sample in [0, 1] and
// -trace.ring ≥ 0. NaN lies in no range. The tools call it right after
// flag.Parse, before any simulation state exists, and exit 2 on an error.
func CheckFlags(link ctrlnet.Config, traceSample float64, traceRing int) error {
	for _, f := range []struct {
		name, want string
		v          float64
		ok         bool
	}{
		{"-ctrl.latency", "finite and ≥ 0", link.Latency, link.Latency >= 0 && !math.IsInf(link.Latency, 1)},
		{"-ctrl.jitter", "finite and ≥ 0", link.Jitter, link.Jitter >= 0 && !math.IsInf(link.Jitter, 1)},
		{"-ctrl.drop", "in [0, 1)", link.Drop, link.Drop >= 0 && link.Drop < 1},
		{"-ctrl.dup", "in [0, 1)", link.Dup, link.Dup >= 0 && link.Dup < 1},
		{"-trace.sample", "in [0, 1]", traceSample, traceSample >= 0 && traceSample <= 1},
		{"-trace.ring", "≥ 0", float64(traceRing), traceRing >= 0},
	} {
		if !f.ok {
			return fmt.Errorf("%s must be %s, got %v", f.name, f.want, f.v)
		}
	}
	return nil
}

// AnySet reports whether any -ctrl.* flag was passed explicitly (call
// after flag.Parse). The suites refuse the whole family: their baselines
// pin a perfect channel, and a silently ignored degradation flag would
// be worse than an error.
func (c *CtrlFlags) AnySet() (string, bool) {
	for _, name := range ctrlFlagNames {
		if FlagWasSet(name) {
			return "-" + name, true
		}
	}
	return "", false
}

// WlFlags is the shared -wl.* flag pair: record the run's offered load
// as a workload-trace-v2 file, or replay a previously recorded one in
// place of the live load generators (see WORKLOADS.md). Registered here
// so both tools document the flags identically and the suites can
// refuse the family by name.
type WlFlags struct {
	record *string
	replay *string
	// rec captures arrivals when -wl.record is set; Finish writes it out.
	rec *wltemporal.Recorder
}

// wlFlagNames is every flag RegisterWlFlags defines, for AnySet.
var wlFlagNames = []string{"wl.record", "wl.replay"}

// RegisterWlFlags registers the shared -wl.* flags. The caller applies
// the parsed values with Apply after flag.Parse and, for -wl.record,
// writes the captured trace with Finish once the run completes.
func RegisterWlFlags() *WlFlags {
	return &WlFlags{
		record: flag.String("wl.record", "",
			"record the scenario's offered load (per-cohort arrival times + classes) to FILE as workload-trace-v2"),
		replay: flag.String("wl.replay", "",
			"replay offered load from a workload-trace-v2 FILE in place of the live generators "+
				"(same seed + same trace reproduces the recorded run bit-exactly)"),
	}
}

// Apply validates the parsed -wl.* values and sets them on the run:
// -wl.replay loads the trace up front so a bad file fails before any
// simulation state exists; -wl.record points OnArrival at a recorder.
func (w *WlFlags) Apply(o *experiments.Options) error {
	if *w.record != "" && *w.replay != "" {
		return errors.New("-wl.record and -wl.replay are mutually exclusive")
	}
	if *w.replay != "" {
		tr, err := wltemporal.ReadTraceFile(*w.replay)
		if err != nil {
			return fmt.Errorf("-wl.replay: %w", err)
		}
		o.Replay = tr
		fmt.Fprintf(os.Stderr, "workload: replaying %d arrivals (%d cohorts, %d classes) from %s\n",
			len(tr.Arrivals), len(tr.Cohorts), len(tr.Classes), *w.replay)
	}
	if *w.record != "" {
		w.rec = wltemporal.NewRecorder()
		o.OnArrival = w.rec.Observe
	}
	return nil
}

// Finish writes the trace captured under -wl.record. A no-op otherwise.
func (w *WlFlags) Finish() error {
	if w.rec == nil {
		return nil
	}
	tr := w.rec.Trace()
	if err := tr.WriteFile(*w.record); err != nil {
		return fmt.Errorf("-wl.record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "workload: %d arrivals (%d cohorts, %d classes) saved to %s\n",
		len(tr.Arrivals), len(tr.Cohorts), len(tr.Classes), *w.record)
	return nil
}

// AnySet reports whether any -wl.* flag was passed explicitly (call
// after flag.Parse). Modes that never build a load generator refuse the
// family rather than silently ignore it.
func (w *WlFlags) AnySet() (string, bool) {
	for _, name := range wlFlagNames {
		if FlagWasSet(name) {
			return "-" + name, true
		}
	}
	return "", false
}

// Options configures a Session from the tools' flags. The zero value
// disables everything.
type Options struct {
	// Addr is the -obs.addr listen address; "" disables the HTTP server.
	Addr string
	// Verbose mirrors decision-trace events to stderr (-v).
	Verbose bool
	// SigPath is the -sig.store signature file; "" disables persistence.
	SigPath string
	// TraceSample is the -trace.sample head-sampling rate in [0, 1];
	// 0 disables span tracing.
	TraceSample float64
	// TraceRing is the -trace.ring capacity of retained finished traces;
	// 0 means obs.DefaultTraceRing.
	TraceRing int
	// RunOut is the -run.out path the flight recording is flushed to as
	// RUN_*.json when Finish is called; "" disables the flight recorder.
	RunOut string
	// PProf mounts net/http/pprof under /debug/pprof/ (-obs.pprof).
	PProf bool
	// Tool, Scenario and Seed label the flight recording's metadata.
	Tool     string
	Scenario string
	Seed     uint64
}

// Session is one tool invocation's observability state.
type Session struct {
	// Recorder is nil when observability is disabled (no -obs.addr, no -v,
	// no -run.out).
	Recorder *obs.Recorder
	// Tracer is nil unless -trace.sample > 0 or -run.out is set.
	Tracer *obs.Tracer
	// Flight is nil unless -run.out is set.
	Flight *obs.FlightRecorder

	srv  *http.Server
	addr string

	// sigPath is the -sig.store file: controllers warm-start from it and
	// Finish saves the last controller's signatures back. "" disables.
	sigPath string
	// runOut is where Finish flushes the flight recording.
	runOut string

	// hooks is what Apply attaches to a run; zero for a disabled session.
	hooks experiments.Options

	mu      sync.Mutex
	ctl     *core.Controller
	running bool
}

// Start configures observability from the tools' flags. With everything
// off it returns a disabled session, leaving the simulation hot path on
// the no-op observer and the nil tracer.
func Start(o Options) (*Session, error) {
	s := &Session{sigPath: o.SigPath, runOut: o.RunOut}
	if o.Addr == "" && !o.Verbose && o.SigPath == "" && o.TraceSample <= 0 && o.RunOut == "" {
		return s, nil
	}
	if o.Addr != "" || o.Verbose || o.RunOut != "" {
		s.Recorder = obs.NewRecorder(EventLogCapacity)
	}
	if o.Verbose {
		s.Recorder.SetVerbose(os.Stderr)
	}
	if o.TraceSample > 0 || o.RunOut != "" {
		ring := o.TraceRing
		if ring <= 0 {
			ring = obs.DefaultTraceRing
		}
		s.Tracer = obs.NewTracer(o.Seed, o.TraceSample, ring)
	}
	if o.RunOut != "" {
		s.Flight = obs.NewFlightRecorder(s.Recorder.Registry(), s.Tracer, obs.RunMeta{
			Tool: o.Tool, Scenario: o.Scenario, Seed: o.Seed, SampleRate: o.TraceSample,
		})
	}
	// A nil *Recorder must become a nil interface, not a typed nil the
	// testbeds would try to call. Tee drops nils and unwraps a single
	// observer, so the flight recorder costs nothing when absent.
	var observer obs.Observer
	if s.Recorder != nil {
		observer = s.Recorder
		if s.Flight != nil {
			observer = obs.Tee(s.Recorder, s.Flight)
		}
	}
	s.hooks = experiments.Options{Observer: observer, Tracer: s.Tracer,
		OnTestbed: func(ctl *core.Controller, _ *cluster.Manager, _ *sim.Engine) {
			s.mu.Lock()
			s.ctl = ctl
			s.running = true
			s.mu.Unlock()
			s.warmStart(ctl)
		}}
	if o.Addr != "" {
		srv, bound, err := obs.Serve(o.Addr, obs.MuxConfig{
			Log:      s.Recorder.Events(),
			Registry: s.Recorder.Registry(),
			Diagnose: s.diagnose,
			Tracer:   s.Tracer,
			Flight:   s.Flight,
			PProf:    o.PProf,
		})
		if err != nil {
			return nil, err
		}
		s.srv, s.addr = srv, bound
		endpoints := "/metrics, /debug/decisions, /debug/diagnosis"
		if s.Tracer != nil {
			endpoints += ", /debug/trace"
		}
		if s.Flight != nil {
			endpoints += ", /debug/runs"
		}
		if o.PProf {
			endpoints += ", /debug/pprof/"
		}
		fmt.Fprintf(os.Stderr, "observability: serving %s on http://%s\n", endpoints, bound)
	}
	return s, nil
}

// Apply attaches the session to a run: its observer and tracer, and a
// testbed callback that points live diagnosis and -sig.store at the
// newest controller. A disabled session leaves all three nil.
func (s *Session) Apply(o *experiments.Options) {
	o.Observer, o.Tracer, o.OnTestbed = s.hooks.Observer, s.hooks.Tracer, s.hooks.OnTestbed
}

// Addr reports the bound HTTP address, or "" when no server runs.
func (s *Session) Addr() string { return s.addr }

// diagnose backs /debug/diagnosis: it refuses while the simulation is
// still running (the controller is not goroutine-safe) and otherwise
// re-runs the read-only diagnosis against the last tick's snapshots.
func (s *Session) diagnose(server string) (interface{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctl == nil {
		return nil, obs.NotReadyError{Reason: "no run has started yet"}
	}
	if s.running {
		return nil, obs.NotReadyError{Reason: "simulation still running; diagnosis is available once it completes"}
	}
	return s.ctl.DiagnoseServerLive(server)
}

// warmStart seeds a freshly built controller's signature store from the
// -sig.store file. A missing file is a normal cold start; a corrupt one
// is reported and ignored — the store's all-or-nothing Load guarantees
// the controller still starts from a clean slate.
func (s *Session) warmStart(ctl *core.Controller) {
	if s.sigPath == "" {
		return
	}
	switch err := ctl.Signatures().LoadFile(s.sigPath); {
	case err == nil:
		fmt.Fprintf(os.Stderr, "signatures: warm-started from %s\n", s.sigPath)
	case errors.Is(err, os.ErrNotExist):
		fmt.Fprintf(os.Stderr, "signatures: %s not found; starting cold\n", s.sigPath)
	default:
		fmt.Fprintf(os.Stderr, "signatures: ignoring %s: %v (starting cold)\n", s.sigPath, err)
	}
}

// Finish marks the run complete, enabling live diagnosis, flushes the
// flight recording to -run.out, and persists the last controller's
// signatures when -sig.store is set. Call it after the scenario function
// returns (the simulation ran to completion inside it). It tries both
// files and returns the errors of those it could not write; the tools
// then exit 1.
func (s *Session) Finish() error {
	s.mu.Lock()
	ctl := s.ctl
	s.running = false
	s.mu.Unlock()
	var runErr, sigErr error
	if s.Flight != nil && s.runOut != "" {
		rec := s.Flight.Snapshot()
		if err := obs.WriteRunFile(s.runOut, rec, true); err != nil {
			runErr = fmt.Errorf("flight recorder: saving %s: %w", s.runOut, err)
		} else {
			fmt.Fprintf(os.Stderr, "flight recorder: %d ticks, %d series, %d traces saved to %s\n",
				len(rec.Ticks), len(rec.Series), len(rec.Traces), s.runOut)
		}
	}
	if s.sigPath != "" && ctl != nil {
		if err := ctl.Signatures().SaveFile(s.sigPath); err != nil {
			sigErr = fmt.Errorf("signatures: saving %s: %w", s.sigPath, err)
		} else {
			fmt.Fprintf(os.Stderr, "signatures: saved to %s\n", s.sigPath)
		}
	}
	return errors.Join(runErr, sigErr)
}

// WaitForInterrupt blocks until SIGINT/SIGTERM so the endpoints stay
// scrapeable after the run, then shuts the server down. A no-op without
// a server.
func (s *Session) WaitForInterrupt() {
	if s.srv == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "observability: run complete; endpoints stay up on http://%s (Ctrl-C to exit)\n", s.addr)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	_ = s.srv.Close()
}

// Close shuts the HTTP server down without waiting.
func (s *Session) Close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
}
