package wltemporal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"outlierlb/internal/metrics"
)

// Workload-trace-v2 is the binary replay format: one file captures a
// run's complete offered load — every submission's cohort, exact
// float64 virtual time and query class — compactly enough to replay
// hour-long runs. The layout, after the 6-byte header "OLBW" + version
// byte '2' + '\n':
//
//	uvarint cohortCount
//	  cohortCount × (uvarint len, len bytes of cohort name)
//	uvarint classCount
//	  classCount × (uvarint len, app bytes, uvarint len, class bytes)
//	uvarint arrivalCount
//	  arrivalCount × (8-byte little-endian IEEE-754 float64 time,
//	                  uvarint cohort index, uvarint class index)
//
// Times are the raw bit patterns of the recorded event timestamps —
// never re-derived arithmetic — so a replay schedules them to the last
// ulp. Framing is strict: readers reject a wrong magic, an unsupported
// version, truncation anywhere, indexes out of range, non-finite or
// decreasing times, and any trailing bytes after the last arrival.

const (
	tracePrefix  = "OLBW"
	traceVersion = '2'

	maxNameLen  = 1 << 12
	maxDictLen  = 1 << 16
	maxArrivals = 1 << 31
)

// Arrival is one recorded submission. Cohort and Class index the
// trace's dictionaries.
type Arrival struct {
	T      float64
	Cohort int
	Class  int
}

// Trace is a decoded workload-trace-v2: the cohort and class
// dictionaries plus the arrival stream in submission order
// (non-decreasing time; ties keep their recorded order, which is the
// original execution order).
type Trace struct {
	Cohorts  []string
	Classes  []metrics.ClassID
	Arrivals []Arrival
}

// Recorder builds a Trace from OnArrival callbacks. Hook it into a
// workload.Emulator or a Driver via their OnArrival options; every
// submission appends one Arrival. Register cohorts up front (Register)
// so a cohort that happens to produce no arrivals still occupies its
// dictionary slot — the replayer's RNG fork parity depends on the
// cohort count matching the recorded run (see the package doc).
type Recorder struct {
	trace     Trace
	cohortIdx map[string]int
	classIdx  map[metrics.ClassID]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{cohortIdx: map[string]int{}, classIdx: map[metrics.ClassID]int{}}
}

// Register ensures the cohort has a dictionary slot even if it never
// arrives. Registration order fixes the dictionary order; Observe
// auto-registers unseen cohorts at first arrival.
func (r *Recorder) Register(cohort string) {
	if _, ok := r.cohortIdx[cohort]; ok {
		return
	}
	r.cohortIdx[cohort] = len(r.trace.Cohorts)
	r.trace.Cohorts = append(r.trace.Cohorts, cohort)
}

// Observe records one submission. It is shaped to sit directly behind
// the Driver's OnArrival hook.
func (r *Recorder) Observe(cohort string, t float64, class metrics.ClassID) {
	r.Register(cohort)
	ci, ok := r.classIdx[class]
	if !ok {
		ci = len(r.trace.Classes)
		r.classIdx[class] = ci
		r.trace.Classes = append(r.trace.Classes, class)
	}
	r.trace.Arrivals = append(r.trace.Arrivals, Arrival{T: t, Cohort: r.cohortIdx[cohort], Class: ci})
}

// Hook returns a workload.Config.OnArrival-shaped adapter that records
// under a fixed cohort name — for capturing a closed-loop emulator,
// which has no cohort concept of its own.
func (r *Recorder) Hook(cohort string) func(t float64, class metrics.ClassID) {
	r.Register(cohort)
	return func(t float64, class metrics.ClassID) { r.Observe(cohort, t, class) }
}

// Trace returns the recording so far. The recorder retains ownership;
// callers should be done recording before writing it out.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Write encodes the trace in workload-trace-v2 format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(tracePrefix + string(rune(traceVersion)) + "\n"); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putString := func(s string) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putUvarint(uint64(len(t.Cohorts))); err != nil {
		return err
	}
	for _, c := range t.Cohorts {
		if err := putString(c); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(t.Classes))); err != nil {
		return err
	}
	for _, c := range t.Classes {
		if err := putString(c.App); err != nil {
			return err
		}
		if err := putString(c.Class); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(t.Arrivals))); err != nil {
		return err
	}
	for _, a := range t.Arrivals {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(a.T))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		if err := putUvarint(uint64(a.Cohort)); err != nil {
			return err
		}
		if err := putUvarint(uint64(a.Class)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to path, truncating any existing file.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("wltemporal: writing trace %s: %w", path, err)
	}
	return f.Close()
}

// ReadTrace decodes a workload-trace-v2 stream, validating framing,
// dictionary bounds and time monotonicity. Any trailing bytes after the
// final arrival are an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 6)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("wltemporal: trace header: %w", err)
	}
	if string(head[:4]) != tracePrefix || head[5] != '\n' {
		return nil, fmt.Errorf("wltemporal: not a workload trace (magic %q)", head)
	}
	if head[4] != traceVersion {
		return nil, fmt.Errorf("wltemporal: unsupported trace version %q (want %q)", head[4], traceVersion)
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("wltemporal: truncated trace reading %s: %w", what, err)
		}
		return v, nil
	}
	readString := func(what string) (string, error) {
		n, err := readUvarint(what + " length")
		if err != nil {
			return "", err
		}
		if n > maxNameLen {
			return "", fmt.Errorf("wltemporal: implausible %s length %d", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("wltemporal: truncated trace reading %s: %w", what, err)
		}
		return string(b), nil
	}

	var t Trace
	nCohorts, err := readUvarint("cohort count")
	if err != nil {
		return nil, err
	}
	if nCohorts > maxDictLen {
		return nil, fmt.Errorf("wltemporal: implausible cohort count %d", nCohorts)
	}
	for i := uint64(0); i < nCohorts; i++ {
		name, err := readString("cohort name")
		if err != nil {
			return nil, err
		}
		t.Cohorts = append(t.Cohorts, name)
	}
	nClasses, err := readUvarint("class count")
	if err != nil {
		return nil, err
	}
	if nClasses > maxDictLen {
		return nil, fmt.Errorf("wltemporal: implausible class count %d", nClasses)
	}
	for i := uint64(0); i < nClasses; i++ {
		app, err := readString("class app")
		if err != nil {
			return nil, err
		}
		class, err := readString("class name")
		if err != nil {
			return nil, err
		}
		t.Classes = append(t.Classes, metrics.ClassID{App: app, Class: class})
	}
	nArrivals, err := readUvarint("arrival count")
	if err != nil {
		return nil, err
	}
	if nArrivals > maxArrivals {
		return nil, fmt.Errorf("wltemporal: implausible arrival count %d", nArrivals)
	}
	// The count is the file's claim, not a measurement: start small and
	// let append grow the slice as arrivals are actually read, so a short
	// file that claims 2^31 arrivals fails at EOF without first asking
	// for tens of gigabytes.
	t.Arrivals = make([]Arrival, 0, min(nArrivals, 4096))
	var tbuf [8]byte
	prev := math.Inf(-1)
	for i := uint64(0); i < nArrivals; i++ {
		if _, err := io.ReadFull(br, tbuf[:]); err != nil {
			return nil, fmt.Errorf("wltemporal: truncated trace reading arrival %d time: %w", i, err)
		}
		at := math.Float64frombits(binary.LittleEndian.Uint64(tbuf[:]))
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return nil, fmt.Errorf("wltemporal: arrival %d has invalid time %v", i, at)
		}
		if at < prev {
			return nil, fmt.Errorf("wltemporal: arrival %d time %v precedes predecessor %v", i, at, prev)
		}
		prev = at
		ci, err := readUvarint("arrival cohort")
		if err != nil {
			return nil, err
		}
		if ci >= nCohorts {
			return nil, fmt.Errorf("wltemporal: arrival %d cohort index %d out of range (%d cohorts)", i, ci, nCohorts)
		}
		ki, err := readUvarint("arrival class")
		if err != nil {
			return nil, err
		}
		if ki >= nClasses {
			return nil, fmt.Errorf("wltemporal: arrival %d class index %d out of range (%d classes)", i, ki, nClasses)
		}
		t.Arrivals = append(t.Arrivals, Arrival{T: at, Cohort: int(ci), Class: int(ki)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wltemporal: trailing data after %d arrivals", nArrivals)
	}
	return &t, nil
}

// ReadTraceFile reads and decodes a workload-trace-v2 file.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("wltemporal: reading trace %s: %w", path, err)
	}
	return t, nil
}
