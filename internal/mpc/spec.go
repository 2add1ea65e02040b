package mpc

import (
	"fmt"

	"repro/internal/graph"
)

// FactorGraph returns the built graph (the serving layer's accessor).
func (p *Problem) FactorGraph() *graph.Graph { return p.Graph }

// Bytes prices the problem for the serving layer's graph cache. The
// graph's arrays are all of it: the K dynamics nodes share one
// projection gain and the stage costs one weight vector.
func (p *Problem) Bytes() int64 { return p.Graph.Bytes() }

// Spec is the declarative, JSON-friendly description of an MPC instance
// for the serving layer. The dynamics are the paper's inverted-pendulum
// system; only the horizon, costs, and initial state vary.
type Spec struct {
	K     int       `json:"k"`               // prediction horizon (required, >= 1)
	Q0    []float64 `json:"q0,omitempty"`    // initial state (len 4, default perturbed pole)
	Rho   float64   `json:"rho,omitempty"`   // ADMM penalty (default 1)
	Alpha float64   `json:"alpha,omitempty"` // ADMM relaxation (default 1)
}

func (s Spec) withDefaults() Spec {
	if s.Q0 == nil {
		s.Q0 = []float64{0, 0, 0.1, 0}
	}
	if s.Rho == 0 {
		s.Rho = 1
	}
	if s.Alpha == 0 {
		s.Alpha = 1
	}
	return s
}

// Key returns the canonical shape key for graph caching.
func (s Spec) Key() string {
	s = s.withDefaults()
	return fmt.Sprintf("mpc/k=%d,q0=%v,rho=%g,alpha=%g", s.K, s.Q0, s.Rho, s.Alpha)
}

// FromSpec builds the factor-graph the spec describes.
func FromSpec(s Spec) (*Problem, error) {
	s = s.withDefaults()
	q0 := make([]float64, len(s.Q0))
	copy(q0, s.Q0)
	return Build(Config{K: s.K, Q0: q0, Rho: s.Rho, Alpha: s.Alpha})
}
