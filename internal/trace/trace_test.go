package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"outlierlb/internal/sim"
)

func TestPagesAndClasses(t *testing.T) {
	tr := Trace{
		{Class: "a", Page: 1}, {Class: "b", Page: 2},
		{Class: "a", Page: 3}, {Class: "c", Page: 4},
	}
	if got := tr.Pages("a"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Pages(a) = %v", got)
	}
	cls := tr.Classes()
	if len(cls) != 3 || cls[0] != "a" || cls[1] != "b" || cls[2] != "c" {
		t.Fatalf("Classes = %v", cls)
	}
	by := tr.ByClass()
	if len(by["c"]) != 1 || by["c"][0] != 4 {
		t.Fatalf("ByClass = %v", by)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := Trace{
		{Class: "BestSeller", Page: 100},
		{Class: "NewProducts", Page: 1 << 40},
		{Class: "BestSeller", Page: 0},
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d != %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("access %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pages []uint64, classSel []uint8) bool {
		names := []string{"q1", "q2", "q3"}
		tr := make(Trace, 0, len(pages))
		for i, p := range pages {
			c := names[0]
			if i < len(classSel) {
				c = names[classSel[i]%3]
			}
			tr = append(tr, Access{Class: c, Page: p})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	tr := Trace{{Class: "a", Page: 1}, {Class: "a", Page: 2}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestSequentialScanCycles(t *testing.T) {
	s := &SequentialScan{Base: 10, Span: 3}
	got := Generate(s, 7)
	want := []uint64{10, 11, 12, 10, 11, 12, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	zero := &SequentialScan{Base: 5, Span: 0}
	if zero.Next() != 5 {
		t.Fatal("zero-span scan should return base")
	}
}

func TestZipfSetSkewAndRange(t *testing.T) {
	rng := sim.NewRNG(1)
	z := NewZipfSet(rng, 1000, 100, 1.4)
	counts := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		p := z.Next()
		if p < 1000 || p >= 1100 {
			t.Fatalf("page %d out of range", p)
		}
		counts[p]++
	}
	if counts[1000] <= counts[1050] {
		t.Fatalf("zipf not skewed toward base: %d vs %d", counts[1000], counts[1050])
	}
}

func TestUniformSetRange(t *testing.T) {
	rng := sim.NewRNG(2)
	u := NewUniformSet(rng, 50, 10)
	for i := 0; i < 1000; i++ {
		p := u.Next()
		if p < 50 || p >= 60 {
			t.Fatalf("page %d out of range", p)
		}
	}
}

// TestNewUniformSetRejectsHugeSpan: a span RNG.Intn cannot take panics
// at construction with a message naming it, not at the first draw.
func TestNewUniformSetRejectsHugeSpan(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "9223372036854775808") {
			t.Fatalf("NewUniformSet(span 2^63) recovered %q, want a panic naming the span", msg)
		}
	}()
	NewUniformSet(sim.NewRNG(1), 0, 1<<63)
}

// TestInterleaveRejectsNegativeN: a negative access count panics with
// a message naming it, not with makeslice's.
func TestInterleaveRejectsNegativeN(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "got -5") {
			t.Fatalf("Interleave(n -5) recovered %q, want a panic naming n", msg)
		}
	}()
	Interleave(sim.NewRNG(1), -5, []string{"a"}, []Generator{&SequentialScan{Span: 10}}, []float64{1})
}

func TestInterleaveWeights(t *testing.T) {
	rng := sim.NewRNG(3)
	a := &SequentialScan{Base: 0, Span: 1000}
	b := &SequentialScan{Base: 5000, Span: 1000}
	tr := Interleave(rng, 10000, []string{"a", "b"}, []Generator{a, b}, []float64{9, 1})
	by := tr.ByClass()
	na, nb := len(by["a"]), len(by["b"])
	if na+nb != 10000 {
		t.Fatalf("total = %d", na+nb)
	}
	ratio := float64(na) / float64(nb)
	if ratio < 6 || ratio > 14 {
		t.Fatalf("weight ratio = %.1f, want ≈9", ratio)
	}
}

func TestInterleaveDegenerateInputs(t *testing.T) {
	rng := sim.NewRNG(4)
	if tr := Interleave(rng, 10, nil, nil, nil); tr != nil {
		t.Fatal("empty inputs should yield nil")
	}
	a := &SequentialScan{Span: 10}
	if tr := Interleave(rng, 10, []string{"a"}, []Generator{a}, []float64{0}); tr != nil {
		t.Fatal("all-zero weights should yield nil")
	}
	if tr := Interleave(rng, 10, []string{"a", "b"}, []Generator{a}, []float64{1, 1}); tr != nil {
		t.Fatal("mismatched lengths should yield nil")
	}
}

func TestInterleaveZeroWeightClassNeverChosen(t *testing.T) {
	rng := sim.NewRNG(5)
	a := &SequentialScan{Base: 0, Span: 10}
	b := &SequentialScan{Base: 100, Span: 10}
	tr := Interleave(rng, 1000, []string{"a", "b"}, []Generator{a, b}, []float64{0, 1})
	if n := len(tr.Pages("a")); n != 0 {
		t.Fatalf("zero-weight class drawn %d times", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace{
		{Class: "BestSeller", Page: 100},
		{Class: "Home", Page: 0},
		{Class: "BestSeller", Page: 1 << 40},
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d", len(got))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("access %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("wrong,header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("class,page\nno-comma-here\n")); err == nil {
		t.Fatal("comma-less line accepted")
	}
	if _, err := ReadCSV(strings.NewReader("class,page\na,notanumber\n")); err == nil {
		t.Fatal("non-numeric page accepted")
	}
	bad := Trace{{Class: "has,comma", Page: 1}}
	var buf bytes.Buffer
	if err := bad.WriteCSV(&buf); err == nil {
		t.Fatal("comma in class name accepted by writer")
	}
}

func TestCSVSkipsBlankLines(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("class,page\na,1\n\n  \nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Class != "b" {
		t.Fatalf("parsed %v", got)
	}
}
