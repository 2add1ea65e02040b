// Package svm builds the paper's machine-learning workload (Section
// V-C): training a soft-margin support-vector machine via the
// message-passing ADMM on the factor-graph of Figure 12.
//
// The formulation creates one copy (w_i, b_i) of the separating plane
// per data point, splits the regularizer into N equal parts, and chains
// the copies with equality nodes:
//
//	minimize   sum_i  1/(2N) ||w_i||^2 + lambda xi_i
//	subject to (w_i, b_i) = (w_{i+1}, b_{i+1})
//	           y_i (w_i . x_i + b_i) >= 1 - xi_i,   xi_i >= 0
//
// The paper motivates the per-point copies explicitly: they equalize the
// edges-per-node distribution, which the current parADMM scheduler needs
// to balance GPU work. Graph size grows linearly in N.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// NormOp is the prox of C/2 ||w||^2 applied to the w part of a plane
// block (w_0..w_{dim-1}); the bias component passes through (the paper's
// "minimal norm two" operator does not regularize b).
type NormOp struct {
	C    float64
	WDim int // number of w components; component WDim is the bias
}

// Eval implements graph.Op. The block is a few doubles, so the bias
// and pads are copied by an element loop, not by the builtin copy and
// its memmove call.
func (p NormOp) Eval(x, n, rho []float64, d int) {
	s := rho[0] / (rho[0] + p.C)
	w := min(p.WDim, d, len(x))
	n = n[:len(x)]
	for j := 0; j < w; j++ {
		x[j] = s * n[j]
	}
	for j := max(w, 0); j < len(x); j++ {
		x[j] = n[j] // bias + pads
	}
}

// Work implements graph.Op.
func (p NormOp) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(2 * p.WDim), MemWords: float64(2 * d), Serial: 0.1}
}

// Value returns C/2 ||w||^2.
func (p NormOp) Value(s []float64, d int) float64 {
	return p.C / 2 * linalg.Norm2Sq(s[:p.WDim])
}

// MarginOp enforces y (w . x + b) >= 1 - xi for one data point (paper
// Appendix C.3, "one point minimal margin"). Edge order: plane block
// (w, b), slack block (xi, pads). The closed form follows from the KKT
// conditions; the plane edge's rho plays the roles of both rho_1 and
// rho_2 in the paper (w and b live on one edge here).
type MarginOp struct {
	X []float64 // data point, length = WDim
	Y float64   // label in {-1, +1}
}

// Eval implements graph.Op.
func (p MarginOp) Eval(x, n, rho []float64, d int) {
	wd := len(p.X)
	// Pads and default identity, element by element: two blocks of a few
	// doubles do not repay a memmove call.
	for i, v := range n[:len(x)] {
		x[i] = v
	}
	nw := n[:wd]
	nb := n[wd]
	nxi := n[d]
	// Constraint value at the input.
	margin := p.Y*(linalg.Dot(nw, p.X)+nb) - 1 + nxi
	if margin >= 0 {
		return // feasible: prox is the identity
	}
	rp, rs := rho[0], rho[1]
	den := (linalg.Norm2Sq(p.X)+1)/rp + 1/rs
	alpha := -margin / den
	for j := 0; j < wd; j++ {
		x[j] = nw[j] + alpha/rp*p.Y*p.X[j]
	}
	x[wd] = nb + alpha/rp*p.Y
	x[d] = nxi + alpha/rs
}

// Work implements graph.Op.
func (p MarginOp) Work(deg, d int) graph.Work {
	wd := float64(len(p.X))
	return graph.Work{Flops: 6*wd + 30, MemWords: float64(2*deg*d) + wd, Branchy: 0.5, Serial: 0.8}
}

// Value is the constraint indicator (0 feasible / +inf violated).
func (p MarginOp) Value(s []float64, d int) float64 {
	wd := len(p.X)
	if p.Y*(linalg.Dot(s[:wd], p.X)+s[wd]) >= 1-s[d]-1e-9 {
		return 0
	}
	return math.Inf(1)
}

// Dataset is a labeled binary-classification sample.
type Dataset struct {
	X [][]float64
	Y []float64 // +1 / -1
}

// TwoGaussians draws n points, half from N(+mu, I) labeled +1 and half
// from N(-mu, I) labeled -1, where mu = (sep/2, 0, ..., 0) in dim
// dimensions — the paper's synthetic benchmark ("two Gaussian
// distributions with mean a certain distance apart").
func TwoGaussians(n, dim int, sep float64, rng *rand.Rand) Dataset {
	if rng == nil {
		rng = rand.New(rand.NewSource(11))
	}
	ds := Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		label := 1.0
		if i%2 == 1 {
			label = -1
		}
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		x[0] += label * sep / 2
		ds.X[i] = x
		ds.Y[i] = label
	}
	return ds
}

// Config parameterizes an SVM factor-graph.
type Config struct {
	Data   Dataset
	Lambda float64 // slack weight (default 1)
	Rho    float64 // ADMM penalty (default 1)
	Alpha  float64 // ADMM relaxation (default 1)
}

// Problem couples the graph with index bookkeeping.
type Problem struct {
	Cfg   Config
	Graph *graph.Graph
	dim   int
}

func planeVar(i int) int { return 2 * i }
func slackVar(i int) int { return 2*i + 1 }

// ExpectedShape returns the element counts for n points: 2n variable
// nodes, 3n + (n-1) function nodes, 4n + 2(n-1) edges — linear in n.
func ExpectedShape(n int) (funcs, vars, edges int) {
	return 4*n - 1, 2 * n, 6*n - 2
}

// Build constructs the Figure 12 factor-graph.
func Build(cfg Config) (*Problem, error) {
	n := len(cfg.Data.X)
	if n < 2 {
		return nil, fmt.Errorf("svm: need at least 2 points, got %d", n)
	}
	if len(cfg.Data.Y) != n {
		return nil, fmt.Errorf("svm: %d labels for %d points", len(cfg.Data.Y), n)
	}
	dim := len(cfg.Data.X[0])
	if dim < 1 {
		return nil, fmt.Errorf("svm: empty feature vectors")
	}
	for i, x := range cfg.Data.X {
		if len(x) != dim {
			return nil, fmt.Errorf("svm: point %d has dim %d, want %d", i, len(x), dim)
		}
		if y := cfg.Data.Y[i]; y != 1 && y != -1 {
			return nil, fmt.Errorf("svm: label %d is %g, want +-1", i, y)
		}
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 1
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}

	d := dim + 1 // block: (w, b); slack blocks pad
	g := graph.New(d)
	for i := 0; i < n; i++ {
		// Regularizer copy: 1/(2N)||w||^2 -> C = 1/N.
		g.AddNode(NormOp{C: 1 / float64(n), WDim: dim}, planeVar(i))
		// Margin constraint.
		g.AddNode(MarginOp{X: cfg.Data.X[i], Y: cfg.Data.Y[i]}, planeVar(i), slackVar(i))
		// Slack cost lambda*xi, xi >= 0.
		g.AddNode(prox.SemiLasso{Lambda: cfg.Lambda, Dim: 1}, slackVar(i))
	}
	// Equality chain over plane copies.
	for i := 0; i+1 < n; i++ {
		g.AddNode(prox.Consensus{Dim: d}, planeVar(i), planeVar(i+1))
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.SetUniformParams(cfg.Rho, cfg.Alpha)
	return &Problem{Cfg: cfg, Graph: g, dim: dim}, nil
}

// Dim returns the feature dimension.
func (p *Problem) Dim() int { return p.dim }

// N returns the number of training points.
func (p *Problem) N() int { return len(p.Cfg.Data.X) }

// Plane returns the consensus separating plane (w, b), averaged over the
// per-point copies (they coincide at convergence; averaging reads a
// sensible plane mid-stream too).
func (p *Problem) Plane() (w []float64, b float64) {
	d := p.dim + 1
	acc := make([]float64, d)
	n := p.N()
	for i := 0; i < n; i++ {
		z := p.Graph.VarBlock(p.Graph.Z, planeVar(i))
		for j := 0; j < d; j++ {
			acc[j] += z[j]
		}
	}
	for j := range acc {
		acc[j] /= float64(n)
	}
	return acc[:p.dim], acc[p.dim]
}

// Slack returns the slack value for point i.
func (p *Problem) Slack(i int) float64 {
	return p.Graph.VarBlock(p.Graph.Z, slackVar(i))[0]
}

// Quality returns Accuracy(p.Cfg.Data), HingeObjective() and
// PlaneSpread(), bit for bit, from one Plane.
func (p *Problem) Quality() (accuracy, hinge, spread float64) {
	w, b := p.Plane()
	return p.accuracy(p.Cfg.Data, w, b), p.hingeObjective(w, b), p.planeSpread(w, b)
}

// PlaneSpread measures consensus quality: the largest distance of any
// plane copy from the average plane.
func (p *Problem) PlaneSpread() float64 { return p.planeSpread(p.Plane()) }

func (p *Problem) planeSpread(w []float64, b float64) float64 {
	avg := append(append([]float64(nil), w...), b)
	var worst float64
	for i := 0; i < p.N(); i++ {
		z := p.Graph.VarBlock(p.Graph.Z, planeVar(i))
		if d := linalg.Dist2(z[:p.dim+1], avg); d > worst {
			worst = d
		}
	}
	return worst
}

// Accuracy classifies the dataset with the consensus plane.
func (p *Problem) Accuracy(ds Dataset) float64 {
	w, b := p.Plane()
	return p.accuracy(ds, w, b)
}

func (p *Problem) accuracy(ds Dataset, w []float64, b float64) float64 {
	correct := 0
	for i, x := range ds.X {
		score := linalg.Dot(w, x) + b
		if (score >= 0 && ds.Y[i] > 0) || (score < 0 && ds.Y[i] < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.X))
}

// HingeObjective evaluates the true SVM objective at the consensus plane:
// 1/2||w||^2 + lambda * sum hinge losses.
func (p *Problem) HingeObjective() float64 { return p.hingeObjective(p.Plane()) }

func (p *Problem) hingeObjective(w []float64, b float64) float64 {
	total := linalg.Norm2Sq(w) / 2
	for i, x := range p.Cfg.Data.X {
		h := 1 - p.Cfg.Data.Y[i]*(linalg.Dot(w, x)+b)
		if h > 0 {
			total += p.Cfg.Lambda * h
		}
	}
	return total
}
