package svm

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// FactorGraph returns the built graph (the serving layer's accessor).
func (p *Problem) FactorGraph() *graph.Graph { return p.Graph }

// Bytes prices the problem for the serving layer's graph cache: the
// graph's arrays plus the dataset, whose points the margin operators
// share, and Quality's scratch.
func (p *Problem) Bytes() int64 {
	ds := p.Cfg.Data
	n := p.Graph.Bytes() + 8*int64(cap(ds.Y)+cap(p.plane)) + 24*int64(cap(ds.X))
	for _, x := range ds.X {
		n += 8 * int64(cap(x))
	}
	return n
}

// Spec is the declarative, JSON-friendly description of a synthetic SVM
// training problem for the serving layer: it fully determines the
// dataset (drawn from Seed), so two equal specs build interchangeable
// factor-graphs.
type Spec struct {
	N      int     `json:"n"`                // data points (required, >= 2)
	Dim    int     `json:"dim,omitempty"`    // feature dimension (default 2)
	Sep    float64 `json:"sep,omitempty"`    // class separation (default 4)
	Lambda float64 `json:"lambda,omitempty"` // slack weight (default 1)
	Rho    float64 `json:"rho,omitempty"`    // ADMM penalty (default 1)
	Alpha  float64 `json:"alpha,omitempty"`  // ADMM relaxation (default 1)
	Seed   int64   `json:"seed,omitempty"`   // dataset seed (default 1)
}

func (s Spec) withDefaults() Spec {
	if s.Dim == 0 {
		s.Dim = 2
	}
	if s.Sep == 0 {
		s.Sep = 4
	}
	if s.Lambda == 0 {
		s.Lambda = 1
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
	return fmt.Sprintf("svm/n=%d,dim=%d,sep=%g,lambda=%g,rho=%g,alpha=%g,seed=%d",
		s.N, s.Dim, s.Sep, s.Lambda, s.Rho, s.Alpha, s.Seed)
}

// FromSpec draws the two-Gaussians dataset the spec describes and builds
// its factor-graph.
func FromSpec(s Spec) (*Problem, error) {
	s = s.withDefaults()
	if s.N < 2 {
		return nil, fmt.Errorf("svm: n = %d, need >= 2", s.N)
	}
	ds := TwoGaussians(s.N, s.Dim, s.Sep, rand.New(rand.NewSource(s.Seed)))
	return Build(Config{Data: ds, Lambda: s.Lambda, Rho: s.Rho, Alpha: s.Alpha})
}
