package wltemporal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestReadTraceAllocationBoundedByInput feeds a header that claims
// 1<<22 arrivals (96 MiB of Arrival values) and carries none. The
// decoder must fail at the first missing arrival having allocated in
// proportion to the bytes it read, not to the count the file claims.
func TestReadTraceAllocationBoundedByInput(t *testing.T) {
	data := []byte(tracePrefix + string(rune(traceVersion)) + "\n")
	data = binary.AppendUvarint(data, 0) // cohorts
	data = binary.AppendUvarint(data, 0) // classes
	data = binary.AppendUvarint(data, 1<<22)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)

	if err == nil || !strings.Contains(err.Error(), "truncated trace reading arrival 0") {
		t.Fatalf("ReadTrace = %v, want the truncation error at arrival 0", err)
	}
	const limit = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("a %d-byte trace allocated %d bytes before failing; want < %d", len(data), got, limit)
	}
}

// FuzzReadTrace checks ReadTrace's contract on arbitrary input: it
// either fails, or the decoded trace re-encodes and decodes back to a
// deeply equal trace. The bytes need not match the input, because
// uvarints accept non-minimal encodings. The seed corpus lives in
// testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("Write→ReadTrace changed the trace:\nfirst  %+v\nsecond %+v", tr, again)
		}
	})
}
