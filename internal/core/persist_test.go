package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
)

func TestSignatureStoreSaveLoadRoundTrip(t *testing.T) {
	st := NewSignatureStore()
	sig := st.Get("tpcw", "db1")
	var v metrics.Vector
	v.Set(metrics.Latency, 0.5)
	v.Set(metrics.BufferMisses, 42)
	sig.UpdateMetrics(123.5, map[metrics.ClassID]metrics.Vector{cid("BestSeller"): v})
	sig.SetMRC(cid("BestSeller"), mrc.Params{
		TotalMemory: 7200, AcceptableMemory: 6982,
		IdealMissRatio: 0.06, AcceptableMissRatio: 0.08,
	})
	// A class with MRC params but no metric vector (recorded at first
	// scheduling, before a stable interval).
	other := st.Get("rubis", "db2")
	other.SetMRC(metrics.ClassID{App: "rubis", Class: "SIBR"},
		mrc.Params{TotalMemory: 7900, AcceptableMemory: 7900})

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := NewSignatureStore()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.Lookup("tpcw", "db1")
	if !ok {
		t.Fatal("signature missing after load")
	}
	if got.RecordedAt != 123.5 {
		t.Fatalf("RecordedAt = %v", got.RecordedAt)
	}
	gv := got.Metrics[cid("BestSeller")]
	if gv.Get(metrics.Latency) != 0.5 || gv.Get(metrics.BufferMisses) != 42 {
		t.Fatalf("metrics vector = %+v", gv)
	}
	p, has := got.MRC[cid("BestSeller")]
	if !has || p.AcceptableMemory != 6982 || p.IdealMissRatio != 0.06 {
		t.Fatalf("MRC params = %+v", p)
	}
	o, ok := loaded.Lookup("rubis", "db2")
	if !ok {
		t.Fatal("second signature missing")
	}
	if _, has := o.MRC[metrics.ClassID{App: "rubis", Class: "SIBR"}]; !has {
		t.Fatal("MRC-only class lost")
	}
}

func TestSignatureStoreLoadRejectsGarbage(t *testing.T) {
	st := NewSignatureStore()
	if err := st.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := st.Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	bad := `{"version":1,"signatures":[{"app":"a","server":"s",
		"classes":[{"app":"a","class":"c","metrics":[1,2]}]}]}`
	if err := st.Load(strings.NewReader(bad)); err == nil {
		t.Fatal("wrong metric arity accepted")
	}
}

// validStoreJSON returns a serialized one-signature store for the
// corruption tests to mangle.
func validStoreJSON(t *testing.T) string {
	t.Helper()
	st := NewSignatureStore()
	var v metrics.Vector
	v.Set(metrics.Latency, 0.25)
	st.Get("tpcw", "db1").UpdateMetrics(10, map[metrics.ClassID]metrics.Vector{cid("Search"): v})
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSignatureStoreLoadMangled(t *testing.T) {
	valid := validStoreJSON(t)
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"truncated", valid[:len(valid)/2]},
		{"trailing garbage", valid + "ill-gotten bytes"},
		{"second document", valid + valid},
		{"wrong version", strings.Replace(valid, `"version": 1`, `"version": 2`, 1)},
		{"version zero", `{"signatures":[]}`},
		{"metric arity short", `{"version":1,"signatures":[{"app":"a","server":"s","classes":[{"app":"a","class":"c","metrics":[1]}]}]}`},
		{"metric arity long", `{"version":1,"signatures":[{"app":"a","server":"s","classes":[{"app":"a","class":"c","metrics":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}]}]}`},
		{"duplicate signature", `{"version":1,"signatures":[{"app":"a","server":"s"},{"app":"a","server":"s"}]}`},
		{"type confusion", `{"version":"1","signatures":{}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Pre-populate so a failed load has state to clobber.
			st := NewSignatureStore()
			var v metrics.Vector
			v.Set(metrics.PageAccesses, 99)
			st.Get("keep", "db9").UpdateMetrics(5, map[metrics.ClassID]metrics.Vector{
				{App: "keep", Class: "K"}: v,
			})

			err := st.Load(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("mangled input accepted: %q", tc.input)
			}
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("error %v (%T) is not a *LoadError", err, err)
			}
			// No partial state: the failed load must leave the previous
			// contents fully intact and import nothing.
			sig, ok := st.Lookup("keep", "db9")
			if !ok {
				t.Fatal("failed load wiped existing signatures")
			}
			if got := sig.Metrics[metrics.ClassID{App: "keep", Class: "K"}]; got.Get(metrics.PageAccesses) != 99 {
				t.Fatalf("existing signature mutated: %+v", got)
			}
			if _, imported := st.Lookup("tpcw", "db1"); imported {
				t.Fatal("failed load imported signatures from the mangled document")
			}
			if _, imported := st.Lookup("a", "s"); imported {
				t.Fatal("failed load imported signatures from the mangled document")
			}
		})
	}
}

func TestSignatureStoreSaveDeterministic(t *testing.T) {
	st := NewSignatureStore()
	var v metrics.Vector
	v.Set(metrics.Latency, 1)
	for _, srv := range []string{"db3", "db1", "db2"} {
		st.Get("tpcw", srv).UpdateMetrics(1, map[metrics.ClassID]metrics.Vector{
			cid("B"): v, cid("A"): v, cid("C"): v,
		})
	}
	var a, b bytes.Buffer
	if err := st.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two saves of the same store differ")
	}
}

func TestSignatureStoreSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sigs.json")

	st := NewSignatureStore()
	var v metrics.Vector
	v.Set(metrics.Latency, 0.5)
	st.Get("tpcw", "db1").UpdateMetrics(77, map[metrics.ClassID]metrics.Vector{cid("Home"): v})
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place must also work (rename over an existing file).
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sigs.json" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}

	loaded := NewSignatureStore()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	sig, ok := loaded.Lookup("tpcw", "db1")
	if !ok || sig.RecordedAt != 77 {
		t.Fatalf("loaded signature = %+v, ok = %v", sig, ok)
	}

	if err := loaded.LoadFile(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
	// A corrupt file fails with the typed error and leaves state intact.
	if err := os.WriteFile(path, []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	var le *LoadError
	if err := loaded.LoadFile(path); !errors.As(err, &le) {
		t.Fatalf("corrupt file: err = %v, want *LoadError", err)
	}
	if _, ok := loaded.Lookup("tpcw", "db1"); !ok {
		t.Fatal("corrupt load wiped the store")
	}
}

// legacySamplesJSON is a version-1 document as Save wrote it while
// stable MRCs were still refreshed: every class with MRC parameters also
// carries a "samples" count.
const legacySamplesJSON = `{
  "version": 1,
  "signatures": [
    {
      "app": "tpcw",
      "server": "db1",
      "recorded_at": 123.5,
      "classes": [
        {
          "app": "tpcw",
          "class": "BestSeller",
          "metrics": [0.5, 0, 42, 0, 0, 0, 0],
          "mrc": {"TotalMemory": 7200, "IdealMissRatio": 0.06, "AcceptableMemory": 6982, "AcceptableMissRatio": 0.08},
          "samples": 49152
        },
        {
          "app": "tpcw",
          "class": "Home",
          "metrics": null,
          "mrc": {"TotalMemory": 900, "IdealMissRatio": 0.01, "AcceptableMemory": 512, "AcceptableMissRatio": 0.03},
          "samples": 98304
        }
      ]
    }
  ]
}
`

func TestSignatureStoreLoadsLegacySamples(t *testing.T) {
	st := NewSignatureStore()
	if err := st.Load(strings.NewReader(legacySamplesJSON)); err != nil {
		t.Fatal(err)
	}
	sig, ok := st.Lookup("tpcw", "db1")
	if !ok {
		t.Fatal("signature missing after load")
	}
	want := map[metrics.ClassID]mrc.Params{
		cid("BestSeller"): {TotalMemory: 7200, IdealMissRatio: 0.06, AcceptableMemory: 6982, AcceptableMissRatio: 0.08},
		cid("Home"):       {TotalMemory: 900, IdealMissRatio: 0.01, AcceptableMemory: 512, AcceptableMissRatio: 0.03},
	}
	if len(sig.MRC) != len(want) {
		t.Fatalf("MRC params = %+v, want %+v", sig.MRC, want)
	}
	for id, p := range want {
		if sig.MRC[id] != p {
			t.Fatalf("MRC params of %v = %+v, want %+v", id, sig.MRC[id], p)
		}
	}
	if v := sig.Metrics[cid("BestSeller")]; v.Get(metrics.BufferMisses) != 42 {
		t.Fatalf("metrics vector = %+v", v)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "samples") {
		t.Fatalf("Save still writes sample counts:\n%s", buf.String())
	}
}

// FuzzSignatureStoreLoad checks Load's contract on arbitrary input: it
// either fails with a *LoadError and leaves the store as it was, or
// succeeds, and then Save→Load→Save reproduces the saved bytes. The
// seed corpus lives in testdata/fuzz/FuzzSignatureStoreLoad.
func FuzzSignatureStoreLoad(f *testing.F) {
	save := func(t *testing.T, st *SignatureStore) string {
		t.Helper()
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return buf.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewSignatureStore()
		var v metrics.Vector
		v.Set(metrics.PageAccesses, 99)
		keep := st.Get("keep", "db9")
		keep.UpdateMetrics(5, map[metrics.ClassID]metrics.Vector{{App: "keep", Class: "K"}: v})
		keep.SetMRC(metrics.ClassID{App: "keep", Class: "K"}, mrc.Params{TotalMemory: 64, AcceptableMemory: 32})
		before := save(t, st)

		if err := st.Load(bytes.NewReader(data)); err != nil {
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("error %v (%T) is not a *LoadError", err, err)
			}
			if after := save(t, st); after != before {
				t.Fatalf("failed load changed the store:\nbefore %s\nafter %s", before, after)
			}
			return
		}
		first := save(t, st)
		again := NewSignatureStore()
		if err := again.Load(strings.NewReader(first)); err != nil {
			t.Fatalf("reloading a saved store: %v\n%s", err, first)
		}
		if second := save(t, again); second != first {
			t.Fatalf("Save→Load→Save changed the bytes:\nfirst %s\nsecond %s", first, second)
		}
	})
}
