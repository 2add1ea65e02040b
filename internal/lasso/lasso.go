// Package lasso builds the consensus Lasso workload from the paper's
// introduction: reference [1] decomposes a Lasso problem over row blocks
// of the data matrix, each solved by a separate worker, with a shared
// coefficient vector. On the factor-graph this is a star: B least-squares
// function nodes and one L1 node all attached to a single variable node
// of degree B+1.
//
// The star topology is the degree-imbalance pathology the paper's
// Conclusion discusses — the z-update of the hub waits for a single
// thread to average all B+1 messages — and is exercised by the
// degree-balanced-grouping ablation bench.
package lasso

import (
	"fmt"
	"math/rand"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// LeastSquaresOp is the prox of f(s) = 1/2 ||A s - y||^2 on a
// single-edge node: s = (A^T A + rho I)^{-1} (A^T y + rho n). The normal
// matrix's factorization is kept for the last rho (linalg.Ridge).
type LeastSquaresOp struct {
	A *linalg.Mat
	Y []float64

	ridge *linalg.Ridge // A^T A
	aty   []float64
	rbuf  []float64 // Value's residual scratch (steady state allocates nothing)
}

// NewLeastSquares validates shapes and precomputes A^T A and A^T y.
func NewLeastSquares(a *linalg.Mat, y []float64) (*LeastSquaresOp, error) {
	if len(y) != a.Rows {
		return nil, fmt.Errorf("lasso: %d observations for %d rows", len(y), a.Rows)
	}
	ridge, err := linalg.NewRidge(linalg.Gram(a))
	if err != nil {
		return nil, err
	}
	aty := make([]float64, a.Cols)
	for i, yi := range y {
		for j, aij := range a.Row(i) {
			aty[j] += aij * yi
		}
	}
	return &LeastSquaresOp{A: a, Y: y, ridge: ridge, aty: aty}, nil
}

// Eval implements graph.Op.
func (p *LeastSquaresOp) Eval(x, n, rho []float64, d int) {
	if len(rho) != 1 {
		panic("lasso: LeastSquaresOp attaches to single-edge nodes")
	}
	nd := p.A.Cols
	if nd > d {
		panic("lasso: feature dim exceeds graph dims")
	}
	for i := nd; i < d; i++ {
		x[i] = n[i]
	}
	r := rho[0]
	for i, v := range p.aty {
		x[i] = v + r*n[i]
	}
	if err := p.ridge.Solve(r, x[:nd]); err != nil {
		panic(fmt.Sprintf("lasso: normal matrix not PD: %v", err))
	}
}

// Work implements graph.Op.
func (p *LeastSquaresOp) Work(deg, d int) graph.Work {
	nd := float64(p.A.Cols)
	return graph.Work{Flops: 2*nd*nd + 4*nd, MemWords: float64(2*d) + nd*nd, Serial: 0.7}
}

// Value returns 1/2 ||A s - y||^2. Like Eval, one instance must not be
// evaluated concurrently (it owns scratch); every builder attaches one
// instance per function node.
func (p *LeastSquaresOp) Value(s []float64, d int) float64 {
	if len(p.rbuf) != p.A.Rows {
		p.rbuf = make([]float64, p.A.Rows)
	}
	r := p.rbuf
	p.A.MulVec(r, s[:p.A.Cols])
	var total float64
	for i := range r {
		dv := r[i] - p.Y[i]
		total += dv * dv
	}
	return total / 2
}

// Instance is a synthetic sparse-regression problem.
type Instance struct {
	A     *linalg.Mat // m x p design
	Y     []float64   // m observations
	XTrue []float64   // p ground-truth coefficients
}

// Synthetic draws a random instance: Gaussian design, sparse truth with
// the given number of nonzeros, Gaussian noise with the given sigma.
func Synthetic(m, p, nonzeros int, sigma float64, rng *rand.Rand) Instance {
	if rng == nil {
		rng = rand.New(rand.NewSource(17))
	}
	a := linalg.NewMat(m, p)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	xt := make([]float64, p)
	perm := rng.Perm(p)
	for k := 0; k < nonzeros && k < p; k++ {
		xt[perm[k]] = rng.NormFloat64() * 3
	}
	y := make([]float64, m)
	a.MulVec(y, xt)
	for i := range y {
		y[i] += sigma * rng.NormFloat64()
	}
	return Instance{A: a, Y: y, XTrue: xt}
}

// Config parameterizes the consensus factor-graph.
type Config struct {
	Inst   Instance
	Blocks int     // row blocks B (default 4)
	Lambda float64 // L1 weight (default 0.1)
	Rho    float64 // ADMM penalty (default 1)
	Alpha  float64
}

// Problem couples the graph with bookkeeping.
type Problem struct {
	Cfg   Config
	Graph *graph.Graph
	p     int
}

// ExpectedShape returns the element counts for B blocks: B+1 function
// nodes, 1 variable node, B+1 edges.
func ExpectedShape(blocks int) (funcs, vars, edges int) {
	return blocks + 1, 1, blocks + 1
}

// Build constructs the star factor-graph.
func Build(cfg Config) (*Problem, error) {
	inst := cfg.Inst
	if inst.A == nil || inst.A.Rows == 0 {
		return nil, fmt.Errorf("lasso: empty instance")
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 4
	}
	if cfg.Blocks < 1 || cfg.Blocks > inst.A.Rows {
		return nil, fmt.Errorf("lasso: %d blocks for %d rows", cfg.Blocks, inst.A.Rows)
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 1
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	p := inst.A.Cols
	g := graph.New(p)
	m := inst.A.Rows
	for b := 0; b < cfg.Blocks; b++ {
		lo := b * m / cfg.Blocks
		hi := (b + 1) * m / cfg.Blocks
		// The block's rows are a view of the instance, not a copy: Eval
		// never reads A (it solves with the Gram factor) and Value only
		// reads it. The capacity bound keeps the view to its own rows.
		sub := &linalg.Mat{Rows: hi - lo, Cols: p, Data: inst.A.Data[lo*p : hi*p : hi*p]}
		op, err := NewLeastSquares(sub, inst.Y[lo:hi])
		if err != nil {
			return nil, err
		}
		g.AddNode(op, 0)
	}
	g.AddNode(prox.L1{Lambda: cfg.Lambda, Dim: p}, 0)
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.SetUniformParams(cfg.Rho, cfg.Alpha)
	return &Problem{Cfg: cfg, Graph: g, p: p}, nil
}

// Coefficients returns the consensus solution.
func (p *Problem) Coefficients() []float64 {
	out := make([]float64, p.p)
	copy(out, p.Graph.VarBlock(p.Graph.Z, 0))
	return out
}

// Objective evaluates 1/2||Ax-y||^2 + lambda||x||_1 at x.
func (p *Problem) Objective(x []float64) float64 {
	inst := p.Cfg.Inst
	r := make([]float64, inst.A.Rows)
	inst.A.MulVec(r, x)
	var total float64
	for i := range r {
		d := r[i] - inst.Y[i]
		total += d * d
	}
	total /= 2
	for _, v := range x {
		if v < 0 {
			total -= p.Cfg.Lambda * v
		} else {
			total += p.Cfg.Lambda * v
		}
	}
	return total
}

// OptimalityGap returns the worst violation of the Lasso subgradient
// optimality conditions at x: for nonzero coordinates
// |grad_j + lambda sign(x_j)|, for zeros max(|grad_j| - lambda, 0),
// where grad = A^T (A x - y).
func (p *Problem) OptimalityGap(x []float64) float64 {
	inst := p.Cfg.Inst
	r := make([]float64, inst.A.Rows)
	inst.A.MulVec(r, x)
	for i := range r {
		r[i] -= inst.Y[i]
	}
	var worst float64
	for j := 0; j < p.p; j++ {
		var gj float64
		for i := 0; i < inst.A.Rows; i++ {
			gj += inst.A.At(i, j) * r[i]
		}
		var viol float64
		switch {
		case x[j] > 1e-8:
			viol = abs(gj + p.Cfg.Lambda)
		case x[j] < -1e-8:
			viol = abs(gj - p.Cfg.Lambda)
		default:
			viol = abs(gj) - p.Cfg.Lambda
			if viol < 0 {
				viol = 0
			}
		}
		if viol > worst {
			worst = viol
		}
	}
	return worst
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SolveTwoBlock solves the same instance with the classic Algorithm-1
// consensus ADMM (admm.TwoBlock): prox of the full least-squares term
// against the L1 prox. Returns the solution. Used as the baseline the
// factor-graph solution is checked against.
func SolveTwoBlock(cfg Config, maxIter int, tol float64) ([]float64, error) {
	inst := cfg.Inst
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 1
	}
	p := inst.A.Cols
	ls, err := NewLeastSquares(inst.A, inst.Y)
	if err != nil {
		return nil, err
	}
	proxF := func(dst, v []float64, rho float64) {
		ls.Eval(dst, v, []float64{rho}, p)
	}
	proxG := func(dst, v []float64, rho float64) {
		for i := range dst {
			dst[i] = linalg.SoftThreshold(v[i], cfg.Lambda/rho)
		}
	}
	tb, err := admm.NewTwoBlock(p, cfg.Rho, proxF, proxG)
	if err != nil {
		return nil, err
	}
	tb.Solve(maxIter, tol)
	out := make([]float64, p)
	copy(out, tb.Z)
	return out, nil
}
