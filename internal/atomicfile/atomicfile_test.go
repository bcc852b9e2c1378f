package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := Write(path, false, writeString("first")); err != nil {
		t.Fatal(err)
	}

	// Without force an existing file is refused and left untouched.
	err := Write(path, false, writeString("second"))
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("overwrite without force: err = %v, want an \"exists\" refusal", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "first" {
		t.Fatalf("refused write changed the file to %q", b)
	}

	// With force the file is replaced.
	if err := Write(path, true, writeString("second")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second" {
		t.Fatalf("forced write left %q, want %q", b, "second")
	}

	// A failing encoder leaves the old file and no temp file behind.
	boom := errors.New("boom")
	err = Write(path, true, func(w io.Writer) error {
		if err := writeString("partial")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("encoder failure: err = %v, want it wrapped", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second" {
		t.Fatalf("failed write changed the file to %q", b)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
