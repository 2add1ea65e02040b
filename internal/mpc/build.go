package mpc

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// Config parameterizes an MPC factor-graph instance.
type Config struct {
	K     int         // prediction horizon (variable nodes: K+1)
	A, B  *linalg.Mat // dynamics (nil means PaperSystem)
	QDiag []float64   // state cost diagonal (len 4, default all 1)
	RDiag []float64   // input cost diagonal (len 1, default 0.1)
	Q0    []float64   // initial state (len 4, default a perturbed pole)
	Rho   float64     // ADMM penalty (default 1)
	Alpha float64     // ADMM relaxation (default 1)
}

func (c *Config) defaults() {
	if c.A == nil || c.B == nil {
		c.A, c.B = PaperSystem()
	}
	if c.QDiag == nil {
		c.QDiag = []float64{1, 1, 1, 1}
	}
	if c.RDiag == nil {
		c.RDiag = []float64{0.1}
	}
	if c.Q0 == nil {
		c.Q0 = []float64{0, 0, 0.1, 0}
	}
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
}

// Problem couples an MPC factor-graph with its bookkeeping. The initial
// state is mutable (SetInitialState) to support the paper's real-time
// receding-horizon pattern: "update the value in the GPU of the current
// state of the system ... and run a few more ADMM iterations ... starting
// from the ADMM solution of the previous cycle".
type Problem struct {
	Cfg   Config
	Graph *graph.Graph

	clampOp *prox.Clamp
}

// ExpectedShape returns the element counts for horizon K: K+1 variable
// nodes, (K+1) cost + K dynamics + 1 clamp function nodes, and
// (K+1) + 2K + 1 edges — linear in K, as the paper notes.
func ExpectedShape(k int) (funcs, vars, edges int) {
	return 2*k + 2, k + 1, 3*k + 2
}

// Build constructs the Figure 9 factor-graph.
func Build(cfg Config) (*Problem, error) {
	cfg.defaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("mpc: K = %d, need >= 1", cfg.K)
	}
	if len(cfg.QDiag) != StateDim || len(cfg.RDiag) != InputDim {
		return nil, fmt.Errorf("mpc: QDiag/RDiag must have lengths %d/%d", StateDim, InputDim)
	}
	if len(cfg.Q0) != StateDim {
		return nil, fmt.Errorf("mpc: Q0 must have length %d", StateDim)
	}
	if cfg.A.Rows != StateDim || cfg.A.Cols != StateDim || cfg.B.Rows != StateDim || cfg.B.Cols != InputDim {
		return nil, fmt.Errorf("mpc: A must be %dx%d and B %dx%d", StateDim, StateDim, StateDim, InputDim)
	}

	g := graph.New(BlockDim)
	w := make([]float64, BlockDim)
	copy(w, cfg.QDiag)
	copy(w[StateDim:], cfg.RDiag)

	// Stage costs: one single-edge quadratic node per time step. The cost
	// is the same at every step and DiagQuadratic is a read-only value, so
	// all K+1 nodes hold one boxed operator instead of K+1 copies.
	var cost graph.Op = prox.DiagQuadratic{W: w, Dim: BlockDim}
	for t := 0; t <= cfg.K; t++ {
		g.AddNode(cost, t)
	}
	// Linearized dynamics: q(t+1) = (I+A) q(t) + B u(t), written as
	// C [v_t; v_{t+1}] = 0 with C = [-(I+A)  -B  |  I  0].
	// Every step has the same constraint, so the K nodes are clones of one
	// operator: they share C and the precomputed projection gain, and each
	// clone is 24 bytes of per-node state (prox.AffineEquality).
	dyn, err := prox.NewAffineEquality(dynamicsConstraint(cfg.A, cfg.B), make([]float64, StateDim), BlockDim)
	if err != nil {
		return nil, fmt.Errorf("mpc: dynamics node: %w", err)
	}
	for t := 0; t < cfg.K; t++ {
		g.AddNode(dyn.Clone(), t, t+1)
	}
	// Initial condition clamp q(0) = q0 (u(0) free).
	clamp := &prox.Clamp{Value: append([]float64(nil), cfg.Q0...)}
	g.AddNode(clamp, 0)

	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.SetUniformParams(cfg.Rho, cfg.Alpha)
	return &Problem{Cfg: cfg, Graph: g, clampOp: clamp}, nil
}

// dynamicsConstraint builds C (StateDim x 2*BlockDim) with
// C [q_t; u_t; q_{t+1}; u_{t+1}] = q_{t+1} - (I+A) q_t - B u_t.
func dynamicsConstraint(a, b *linalg.Mat) *linalg.Mat {
	c := linalg.NewMat(StateDim, 2*BlockDim)
	for i := 0; i < StateDim; i++ {
		for j := 0; j < StateDim; j++ {
			v := -a.At(i, j)
			if i == j {
				v -= 1
			}
			c.Set(i, j, v)
		}
		c.Set(i, StateDim, -b.At(i, 0))
		c.Set(i, BlockDim+i, 1)
	}
	return c
}

// SetInitialState retargets the clamp to a new measured state, the
// per-cycle update of the receding-horizon loop.
func (p *Problem) SetInitialState(q0 []float64) {
	if len(q0) != StateDim {
		panic("mpc: bad initial state length")
	}
	copy(p.clampOp.Value, q0)
}

// State returns the predicted state at step t from the consensus z.
func (p *Problem) State(t int) []float64 {
	z := p.Graph.VarBlock(p.Graph.Z, t)
	out := make([]float64, StateDim)
	copy(out, z[:StateDim])
	return out
}

// Input returns the planned input at step t.
func (p *Problem) Input(t int) float64 {
	return p.Graph.VarBlock(p.Graph.Z, t)[StateDim]
}

// InitRandom seeds the ADMM state uniformly in [-scale, scale] (the
// paper's random initialization). A nil rng uses a fixed seed.
func (p *Problem) InitRandom(scale float64, rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(3))
	}
	p.Graph.InitRandom(-scale, scale, rng)
}

// DynamicsResidual returns the worst violation of the linear dynamics by
// the consensus trajectory (exactness check for the convex QP).
func (p *Problem) DynamicsResidual() float64 {
	var worst float64
	next := make([]float64, StateDim)
	for t := 0; t < p.Cfg.K; t++ {
		q := p.State(t)
		u := p.Input(t)
		copy(next, q)
		StepDynamics(p.Cfg.A, p.Cfg.B, next, u)
		q1 := p.State(t + 1)
		for i := 0; i < StateDim; i++ {
			d := next[i] - q1[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Cost evaluates the true MPC objective at the consensus trajectory.
func (p *Problem) Cost() float64 {
	var total float64
	for t := 0; t <= p.Cfg.K; t++ {
		q := p.State(t)
		u := p.Input(t)
		for i := 0; i < StateDim; i++ {
			total += p.Cfg.QDiag[i] * q[i] * q[i]
		}
		total += p.Cfg.RDiag[0] * u * u
	}
	return total
}

// SolveExact computes the exact QP minimizer by eliminating states:
// q(t) is affine in the inputs, so the problem reduces to a small dense
// least-squares in u(0..K-1) solved by Cholesky. Used to validate the
// ADMM solution in tests and examples. Returns the optimal inputs and
// the optimal cost. Only practical for small K.
func SolveExact(cfg Config) ([]float64, float64, error) {
	cfg.defaults()
	k := cfg.K
	if k < 1 {
		return nil, 0, fmt.Errorf("mpc: K = %d", k)
	}
	// q(t) = F[t] q0 + sum_{s<t} G[t][s] u(s), F[t] = (I+A)^t,
	// G[t][s] = (I+A)^{t-1-s} B.
	ia := linalg.Eye(StateDim)
	for i := 0; i < StateDim; i++ {
		for j := 0; j < StateDim; j++ {
			ia.Set(i, j, ia.At(i, j)+cfg.A.At(i, j))
		}
	}
	powers := make([]*linalg.Mat, k+1)
	powers[0] = linalg.Eye(StateDim)
	for t := 1; t <= k; t++ {
		powers[t] = linalg.Mul(ia, powers[t-1])
	}
	fq := make([][]float64, k+1) // F[t] q0
	for t := 0; t <= k; t++ {
		fq[t] = make([]float64, StateDim)
		powers[t].MulVec(fq[t], cfg.Q0)
	}
	gcol := func(t, s int) []float64 { // G[t][s] = powers[t-1-s] * B
		out := make([]float64, StateDim)
		bcol := make([]float64, StateDim)
		for i := range bcol {
			bcol[i] = cfg.B.At(i, 0)
		}
		powers[t-1-s].MulVec(out, bcol)
		return out
	}
	// Normal equations: H u = -g, H[s][s'] = R delta + sum_t G[t][s]' Q G[t][s'],
	// g[s] = sum_t G[t][s]' Q F[t] q0.
	h := linalg.NewMat(k, k)
	gvec := make([]float64, k)
	for s := 0; s < k; s++ {
		h.Set(s, s, cfg.RDiag[0])
	}
	for t := 1; t <= k; t++ {
		for s := 0; s < t; s++ {
			gs := gcol(t, s)
			for s2 := 0; s2 < t; s2++ {
				gs2 := gcol(t, s2)
				var acc float64
				for i := 0; i < StateDim; i++ {
					acc += gs[i] * cfg.QDiag[i] * gs2[i]
				}
				h.Set(s, s2, h.At(s, s2)+acc)
			}
			var acc float64
			for i := 0; i < StateDim; i++ {
				acc += gs[i] * cfg.QDiag[i] * fq[t][i]
			}
			gvec[s] += acc
		}
	}
	for i := range gvec {
		gvec[i] = -gvec[i]
	}
	u, err := linalg.SolveSPD(h, gvec)
	if err != nil {
		return nil, 0, err
	}
	// Optimal cost.
	var cost float64
	q := append([]float64(nil), cfg.Q0...)
	for t := 0; t <= k; t++ {
		var ut float64
		if t < k {
			ut = u[t]
		}
		for i := 0; i < StateDim; i++ {
			cost += cfg.QDiag[i] * q[i] * q[i]
		}
		cost += cfg.RDiag[0] * ut * ut
		if t < k {
			StepDynamics(cfg.A, cfg.B, q, ut)
		}
	}
	return u, cost, nil
}
