package lasso

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// FactorGraph returns the built graph (the serving layer's accessor).
func (p *Problem) FactorGraph() *graph.Graph { return p.Graph }

// Bytes prices the problem for the serving layer's graph cache: the
// graph's arrays, each block's ridge factors and A^T y, and the full
// instance Objective reads. A block's rows of A and its observations
// are views of the instance's and count once.
func (p *Problem) Bytes() int64 {
	inst := p.Cfg.Inst
	n := p.Graph.Bytes() + 8*int64(cap(inst.A.Data)+cap(inst.Y)+cap(inst.XTrue))
	for a := 0; a < p.Graph.NumFunctions(); a++ {
		if ls, ok := p.Graph.Op(a).(*LeastSquaresOp); ok {
			n += 8*int64(cap(ls.aty)+cap(ls.rbuf)) + ls.ridge.Bytes()
		}
	}
	return n
}

// Spec is the declarative, JSON-friendly description of a synthetic
// consensus-Lasso problem, the unit of request admission for the serving
// layer: it fully determines the instance (data is drawn from Seed), so
// two equal specs build interchangeable factor-graphs.
type Spec struct {
	M        int     `json:"m"`                  // observations (required, >= 2)
	P        int     `json:"p,omitempty"`        // features (default M/4+2)
	Nonzeros int     `json:"nonzeros,omitempty"` // ground-truth support (default M/16+1)
	Sigma    float64 `json:"sigma,omitempty"`    // noise level (default 0.05)
	Blocks   int     `json:"blocks,omitempty"`   // row blocks B (default 4)
	Lambda   float64 `json:"lambda,omitempty"`   // L1 weight (default 0.1)
	Rho      float64 `json:"rho,omitempty"`      // ADMM penalty (default 1)
	Alpha    float64 `json:"alpha,omitempty"`    // ADMM relaxation (default 1)
	Seed     int64   `json:"seed,omitempty"`     // instance seed (default 17)
}

func (s Spec) withDefaults() Spec {
	if s.P == 0 {
		s.P = s.M/4 + 2
	}
	if s.Nonzeros == 0 {
		s.Nonzeros = s.M/16 + 1
	}
	if s.Sigma == 0 {
		s.Sigma = 0.05
	}
	if s.Blocks == 0 {
		s.Blocks = 4
	}
	if s.Lambda == 0 {
		s.Lambda = 0.1
	}
	if s.Rho == 0 {
		s.Rho = 1
	}
	if s.Alpha == 0 {
		s.Alpha = 1
	}
	if s.Seed == 0 {
		s.Seed = 17
	}
	return s
}

// Key returns the canonical shape key: equal keys mean FromSpec builds
// interchangeable problems, so a cached graph can be reused.
func (s Spec) Key() string {
	s = s.withDefaults()
	return fmt.Sprintf("lasso/m=%d,p=%d,nz=%d,sigma=%g,blocks=%d,lambda=%g,rho=%g,alpha=%g,seed=%d",
		s.M, s.P, s.Nonzeros, s.Sigma, s.Blocks, s.Lambda, s.Rho, s.Alpha, s.Seed)
}

// FromSpec draws the synthetic instance the spec describes and builds
// its consensus factor-graph.
func FromSpec(s Spec) (*Problem, error) {
	s = s.withDefaults()
	if s.M < 2 {
		return nil, fmt.Errorf("lasso: m = %d, need >= 2", s.M)
	}
	inst := Synthetic(s.M, s.P, s.Nonzeros, s.Sigma, rand.New(rand.NewSource(s.Seed)))
	return Build(Config{Inst: inst, Blocks: s.Blocks, Lambda: s.Lambda, Rho: s.Rho, Alpha: s.Alpha})
}
