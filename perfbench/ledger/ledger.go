// Package ledger turns a Go CPU profile into a per-layer CPU-time
// ledger. A layer is a package of the module under test: every sample is
// charged to the innermost stack frame whose function lives under the
// module's package prefix, so a layer's self time covers its own code
// plus whatever runtime or standard-library work it called directly
// (allocation, map access, sorting). Samples with no module frame at all
// (background GC workers, the scheduler) are charged to the "runtime"
// layer. Cumulative samples at named entry points count each sample once
// if the function appears anywhere on its stack.
//
// The package decodes the profile.proto wire format itself, so it needs
// nothing beyond the standard library.
package ledger

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Runtime is the layer charged with samples that carry no module frame.
const Runtime = "runtime"

// Stack is one profile sample: its frames leaf first (inlined callees
// before their callers) and how many times it was sampled.
type Stack struct {
	Frames  []string
	Samples int64
}

// Profile is the part of a CPU profile the ledger needs.
type Profile struct {
	Stacks []Stack
}

// Ledger is a profile's samples attributed to layers and entry points.
// It counts samples rather than the profile's nominal nanoseconds: the
// kernel may deliver fewer profiling signals than the requested rate, so
// callers convert a share of samples into seconds with a CPU time they
// measured themselves.
type Ledger struct {
	Self  map[string]int64 // by layer
	Cum   map[string]int64 // by entry-point function name
	Total int64
}

// Add folds another ledger into l.
func (l *Ledger) Add(o Ledger) {
	if l.Self == nil {
		l.Self, l.Cum = map[string]int64{}, map[string]int64{}
	}
	for k, n := range o.Self {
		l.Self[k] += n
	}
	for k, n := range o.Cum {
		l.Cum[k] += n
	}
	l.Total += o.Total
}

// LayerOf reports the layer a function belongs to: the first path
// element after prefix ("outlierlb/internal/workload/tpcw.New" with
// prefix "outlierlb/internal/" is "workload"), or "" when the function
// is outside the prefix.
func LayerOf(fn, prefix string) string {
	rest, ok := strings.CutPrefix(fn, prefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// Attribute charges every sample of p to the innermost frame under
// prefix, and to each entry point (an exact function name) on its stack.
func Attribute(p *Profile, prefix string, entries []string) Ledger {
	l := Ledger{Self: map[string]int64{}, Cum: map[string]int64{}}
	for _, s := range p.Stacks {
		l.Total += s.Samples
		layer := Runtime
		for _, fn := range s.Frames {
			if name := LayerOf(fn, prefix); name != "" {
				layer = name
				break
			}
		}
		l.Self[layer] += s.Samples
		for _, e := range entries {
			if slices.Contains(s.Frames, e) {
				l.Cum[e] += s.Samples
			}
		}
	}
	return l
}

// Parse decodes a (possibly gzipped) CPU profile as runtime/pprof writes
// it.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("ledger: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("ledger: gunzip profile: %w", err)
		}
	}
	var (
		strs       []string
		sampleType []int64 // string index of each value's type
		samples    []rawSample
		locs       = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs      = map[uint64]int64{}    // function id → name string index
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleType = append(sampleType, typ)
		case 2: // sample
			var s rawSample
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds).
	countIdx := slices.IndexFunc(sampleType, func(t int64) bool { return str(t) == "samples" })
	if countIdx < 0 {
		return nil, errors.New("ledger: not a CPU profile (no samples value type)")
	}
	p := &Profile{Stacks: make([]Stack, 0, len(samples))}
	for _, s := range samples {
		if len(s.values) != len(sampleType) {
			return nil, fmt.Errorf("ledger: sample has %d values, profile declares %d", len(s.values), len(sampleType))
		}
		st := Stack{Samples: s.values[countIdx]}
		for _, id := range s.locs {
			for _, fn := range locs[id] {
				st.Frames = append(st.Frames, str(funcs[fn]))
			}
		}
		p.Stacks = append(p.Stacks, st)
	}
	return p, nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// fields walks the protobuf message in b, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("ledger: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("ledger: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("ledger: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("ledger: truncated length-delimited field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("ledger: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("ledger: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: one
// unpacked value, or a packed run.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("ledger: truncated packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
