package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"outlierlb/internal/atomicfile"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
)

// This file persists stable-state signatures. A restarted controller
// would otherwise need minutes of stable intervals before it can
// diagnose anything; loading the previous signatures restores its
// baselines immediately.

// signatureDTO is the JSON form of one (application, server) signature.
type signatureDTO struct {
	App        string          `json:"app"`
	Server     string          `json:"server"`
	RecordedAt float64         `json:"recorded_at"`
	Classes    []classEntryDTO `json:"classes"`
}

// classEntryDTO is one class of a signature. Older version-1 documents
// also carry a per-class "samples" count; the decoder ignores unknown
// fields, so they still load.
type classEntryDTO struct {
	App     string      `json:"app"`
	Class   string      `json:"class"`
	Metrics []float64   `json:"metrics"` // indexed by metrics.Metric
	MRC     *mrc.Params `json:"mrc,omitempty"`
}

type storeDTO struct {
	Version    int            `json:"version"`
	Signatures []signatureDTO `json:"signatures"`
}

// Save serializes the store as JSON. Output is deterministic: signatures
// are ordered by (app, server) and classes by name, so saving the same
// store twice produces identical bytes.
func (st *SignatureStore) Save(w io.Writer) error {
	keys := make([]sigKey, 0, len(st.sigs))
	for key := range st.sigs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].server < keys[j].server
	})
	dto := storeDTO{Version: 1}
	for _, key := range keys {
		sig := st.sigs[key]
		sd := signatureDTO{App: key.app, Server: key.server, RecordedAt: sig.RecordedAt}
		seen := make(map[metrics.ClassID]bool)
		add := func(id metrics.ClassID) *classEntryDTO {
			sd.Classes = append(sd.Classes, classEntryDTO{App: id.App, Class: id.Class})
			return &sd.Classes[len(sd.Classes)-1]
		}
		for id, v := range sig.Metrics {
			e := add(id)
			e.Metrics = append([]float64(nil), v[:]...)
			if p, ok := sig.MRC[id]; ok {
				pc := p
				e.MRC = &pc
			}
			seen[id] = true
		}
		for id, p := range sig.MRC {
			if seen[id] {
				continue
			}
			e := add(id)
			pc := p
			e.MRC = &pc
		}
		sort.Slice(sd.Classes, func(i, j int) bool {
			if sd.Classes[i].App != sd.Classes[j].App {
				return sd.Classes[i].App < sd.Classes[j].App
			}
			return sd.Classes[i].Class < sd.Classes[j].Class
		})
		dto.Signatures = append(dto.Signatures, sd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dto)
}

// LoadError is the typed error Load returns for any malformed input:
// invalid or truncated JSON, an unsupported version, trailing data, or
// signatures that fail validation. When Load fails the store is left
// exactly as it was — never with a partially applied snapshot.
type LoadError struct {
	Cause string // what was wrong with the input
	Err   error  // underlying decode error, if any
}

func (e *LoadError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: loading signatures: %s: %v", e.Cause, e.Err)
	}
	return "core: loading signatures: " + e.Cause
}

func (e *LoadError) Unwrap() error { return e.Err }

// Load replaces the store's contents with signatures saved by Save. The
// whole document is decoded and validated into a fresh map first and
// swapped in only on success, so a truncated or corrupt file can never
// leave the store holding half a snapshot.
func (st *SignatureStore) Load(r io.Reader) error {
	dec := json.NewDecoder(r)
	var dto storeDTO
	if err := dec.Decode(&dto); err != nil {
		return &LoadError{Cause: "decoding JSON", Err: err}
	}
	if dto.Version != 1 {
		return &LoadError{Cause: fmt.Sprintf("unsupported signature version %d", dto.Version)}
	}
	// Save writes exactly one document; anything after it means the file
	// was corrupted (e.g. two saves interleaved without the atomic rename).
	if _, err := dec.Token(); err != io.EOF {
		return &LoadError{Cause: "trailing data after signature document"}
	}
	fresh := make(map[sigKey]*Signature, len(dto.Signatures))
	for _, sd := range dto.Signatures {
		key := sigKey{app: sd.App, server: sd.Server}
		if _, dup := fresh[key]; dup {
			return &LoadError{Cause: fmt.Sprintf("duplicate signature for app %q on server %q", sd.App, sd.Server)}
		}
		sig := NewSignature()
		sig.RecordedAt = sd.RecordedAt
		for _, e := range sd.Classes {
			id := metrics.ClassID{App: e.App, Class: e.Class}
			if e.Metrics != nil {
				if len(e.Metrics) != metrics.NumMetrics {
					return &LoadError{Cause: fmt.Sprintf("signature for %v has %d metrics, want %d",
						id, len(e.Metrics), metrics.NumMetrics)}
				}
				var v metrics.Vector
				copy(v[:], e.Metrics)
				sig.Metrics[id] = v
			}
			if e.MRC != nil {
				sig.MRC[id] = *e.MRC
			}
		}
		fresh[key] = sig
	}
	st.sigs = fresh
	return nil
}

// SaveFile atomically persists the store to path, replacing any
// existing file. A crash at any point leaves either the previous file or
// the new one, never a truncated mix.
func (st *SignatureStore) SaveFile(path string) error {
	if err := atomicfile.Write(path, true, st.Save); err != nil {
		return fmt.Errorf("core: saving signatures: %w", err)
	}
	return nil
}

// LoadFile loads signatures from path, replacing the store's contents
// on success and leaving them untouched on any error. Callers that
// treat a missing file as a cold start should test the returned error
// with errors.Is(err, os.ErrNotExist).
func (st *SignatureStore) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: loading signatures: %w", err)
	}
	defer f.Close()
	return st.Load(f)
}
