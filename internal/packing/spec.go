package packing

import (
	"fmt"

	"repro/internal/graph"
)

// FactorGraph returns the built graph (the serving layer's accessor).
func (p *Problem) FactorGraph() *graph.Graph { return p.Graph }

// Bytes prices the problem for the serving layer's graph cache. The
// graph's arrays are all of it: the operators hold a wall or a weight
// each.
func (p *Problem) Bytes() int64 { return p.Graph.Bytes() }

// Spec is the declarative, JSON-friendly description of a circle-packing
// instance for the serving layer. The container is the unit triangle;
// Seed controls the random initialization the nonconvex solve descends
// from (packing quality is init-dependent, so the seed is part of the
// shape key).
type Spec struct {
	N     int     `json:"n"`               // circles (required, >= 1)
	Delta float64 `json:"delta,omitempty"` // radius-reward weight (default 0.5)
	Rho   float64 `json:"rho,omitempty"`   // ADMM penalty (default 1, must exceed delta)
	Alpha float64 `json:"alpha,omitempty"` // ADMM relaxation (default 1)
	Seed  int64   `json:"seed,omitempty"`  // init seed (default 1)
}

func (s Spec) withDefaults() Spec {
	if s.Delta == 0 {
		s.Delta = 0.5
	}
	if s.Rho == 0 {
		s.Rho = 1
	}
	if s.Alpha == 0 {
		s.Alpha = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Key returns the canonical shape key for graph caching.
func (s Spec) Key() string {
	s = s.withDefaults()
	return fmt.Sprintf("packing/n=%d,delta=%g,rho=%g,alpha=%g,seed=%d",
		s.N, s.Delta, s.Rho, s.Alpha, s.Seed)
}

// FromSpec builds the factor-graph the spec describes. The caller (or
// the serve adapter) is responsible for InitRandom with the spec's seed.
func FromSpec(s Spec) (*Problem, error) {
	s = s.withDefaults()
	return Build(Config{N: s.N, Delta: s.Delta, Rho: s.Rho, Alpha: s.Alpha})
}
