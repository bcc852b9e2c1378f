package core

import (
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
)

// Signature is the stable-state record of §3.3 for one application on
// one server: the average value of every monitored metric for every query
// class during the most recent measurement interval in which the
// application's SLA was continuously met, plus the MRC parameters of each
// class. As in the paper, a class's MRC is computed once, when the class
// is first scheduled on the server and has issued enough accesses for an
// estimate, and recomputed only by diagnosis after an SLA violation.
type Signature struct {
	// Metrics holds per-class stable metric vectors.
	Metrics map[metrics.ClassID]metrics.Vector
	// MRC holds per-class stable miss-ratio-curve parameters.
	MRC map[metrics.ClassID]mrc.Params
	// RecordedAt is the virtual time the metric vectors were last
	// refreshed.
	RecordedAt float64
}

// NewSignature returns an empty signature.
func NewSignature() *Signature {
	return &Signature{
		Metrics: make(map[metrics.ClassID]metrics.Vector),
		MRC:     make(map[metrics.ClassID]mrc.Params),
	}
}

// UpdateMetrics replaces the stable metric vectors with a fresh stable
// interval's averages. MRC parameters are deliberately left untouched:
// the paper recomputes them only upon SLA violations with memory-counter
// outliers.
func (s *Signature) UpdateMetrics(now float64, vectors map[metrics.ClassID]metrics.Vector) {
	for id, v := range vectors {
		s.Metrics[id] = v
	}
	s.RecordedAt = now
}

// SetMRC records MRC parameters for a class (at first scheduling or
// after a diagnostic recomputation).
func (s *Signature) SetMRC(id metrics.ClassID, p mrc.Params) {
	s.MRC[id] = p
}

// HasMRC reports whether parameters are known for id.
func (s *Signature) HasMRC(id metrics.ClassID) bool {
	_, ok := s.MRC[id]
	return ok
}

// SignatureStore keeps one signature per (application, server) pair.
type SignatureStore struct {
	sigs map[sigKey]*Signature
}

type sigKey struct {
	app    string
	server string
}

// NewSignatureStore returns an empty store.
func NewSignatureStore() *SignatureStore {
	return &SignatureStore{sigs: make(map[sigKey]*Signature)}
}

// Get returns the signature for app on server, creating it if absent.
func (st *SignatureStore) Get(app, server string) *Signature {
	k := sigKey{app, server}
	s := st.sigs[k]
	if s == nil {
		s = NewSignature()
		st.sigs[k] = s
	}
	return s
}

// Lookup returns the signature if one exists.
func (st *SignatureStore) Lookup(app, server string) (*Signature, bool) {
	s, ok := st.sigs[sigKey{app, server}]
	return s, ok
}
