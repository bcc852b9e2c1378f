// Package trace represents page-access traces: the sequences of (query
// class, page) references that drive the buffer-pool simulator and MRC
// computation. The paper collects such traces from an instrumented
// MySQL/InnoDB; here they come from the engine simulator or from the
// synthetic generators in this package.
//
// Concurrency: generators are stateful (scans keep their position) and
// single-owner — each belongs to the query class executing it on the
// engine's query path.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Access is one page reference by one query class.
type Access struct {
	Class string
	Page  uint64
}

// Trace is an ordered sequence of page references.
type Trace []Access

// Pages extracts the page sequence of a single class, preserving order.
func (t Trace) Pages(class string) []uint64 {
	var out []uint64
	for _, a := range t {
		if a.Class == class {
			out = append(out, a.Page)
		}
	}
	return out
}

// Classes returns the distinct class names in first-appearance order.
func (t Trace) Classes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range t {
		if !seen[a.Class] {
			seen[a.Class] = true
			out = append(out, a.Class)
		}
	}
	return out
}

// ByClass splits the trace into per-class page sequences.
func (t Trace) ByClass() map[string][]uint64 {
	out := make(map[string][]uint64)
	for _, a := range t {
		out[a.Class] = append(out[a.Class], a.Page)
	}
	return out
}

const magic = "OLBT1\n"

// Write serializes the trace in a compact binary format: a magic header, a
// class dictionary, then varint-encoded (classIndex, page) pairs.
func (t Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	classes := t.Classes()
	idx := make(map[string]uint64, len(classes))
	for i, c := range classes {
		idx[c] = uint64(i)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(classes))); err != nil {
		return err
	}
	for _, c := range classes {
		if err := writeUvarint(uint64(len(c))); err != nil {
			return err
		}
		if _, err := bw.WriteString(c); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(t))); err != nil {
		return err
	}
	for _, a := range t {
		if err := writeUvarint(idx[a.Class]); err != nil {
			return err
		}
		if err := writeUvarint(a.Page); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	nClasses, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: class count: %w", err)
	}
	const maxClasses = 1 << 20
	if nClasses > maxClasses {
		return nil, fmt.Errorf("trace: implausible class count %d", nClasses)
	}
	classes := make([]string, nClasses)
	for i := range classes {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: class name length: %w", err)
		}
		if n > 4096 {
			return nil, fmt.Errorf("trace: implausible class name length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("trace: class name: %w", err)
		}
		classes[i] = string(b)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: access count: %w", err)
	}
	out := make(Trace, 0, min(count, 1<<20))
	for i := uint64(0); i < count; i++ {
		ci, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d class: %w", i, err)
		}
		if ci >= nClasses {
			return nil, fmt.Errorf("trace: access %d references unknown class %d", i, ci)
		}
		pg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d page: %w", i, err)
		}
		out = append(out, Access{Class: classes[ci], Page: pg})
	}
	return out, nil
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// WriteCSV serializes the trace as "class,page" lines with a header —
// the interchange format for spreadsheets and other tools. The binary
// format (Write) is ~6x smaller; prefer it for large traces.
func (t Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("class,page\n"); err != nil {
		return err
	}
	for _, a := range t {
		if strings.ContainsAny(a.Class, ",\n\"") {
			return fmt.Errorf("trace: class %q needs quoting the CSV writer does not support", a.Class)
		}
		if _, err := fmt.Fprintf(bw, "%s,%d\n", a.Class, a.Page); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV deserializes a trace written by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if got := strings.TrimSpace(sc.Text()); got != "class,page" {
		return nil, fmt.Errorf("trace: bad CSV header %q", got)
	}
	var out Trace
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		class, pageStr, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("trace: line %d: no comma", line)
		}
		page, err := strconv.ParseUint(strings.TrimSpace(pageStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, Access{Class: class, Page: page})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
