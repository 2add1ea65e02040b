package mpc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/linalg"
	_ "repro/internal/shard" // registers the sharded executor
)

func TestPendulumLinearizeShapes(t *testing.T) {
	ac, bc := DefaultPendulum().Linearize()
	if ac.Rows != 4 || ac.Cols != 4 || bc.Rows != 4 || bc.Cols != 1 {
		t.Fatalf("shapes: A %dx%d, B %dx%d", ac.Rows, ac.Cols, bc.Rows, bc.Cols)
	}
	// Upright inverted pendulum is unstable: A must couple angle into
	// angular acceleration positively.
	if ac.At(3, 2) <= 0 {
		t.Fatalf("A[3][2] = %g, expected positive (unstable upright)", ac.At(3, 2))
	}
	// Force pushes the cart forward.
	if bc.At(1, 0) <= 0 {
		t.Fatalf("B[1][0] = %g", bc.At(1, 0))
	}
}

func TestDiscretizeScalesByDt(t *testing.T) {
	ac, bc := DefaultPendulum().Linearize()
	a, b := Discretize(ac, bc, 0.04)
	if math.Abs(a.At(1, 2)-0.04*ac.At(1, 2)) > 1e-15 {
		t.Fatal("A not scaled by dt")
	}
	if math.Abs(b.At(3, 0)-0.04*bc.At(3, 0)) > 1e-15 {
		t.Fatal("B not scaled by dt")
	}
}

func TestStepDynamics(t *testing.T) {
	a := linalg.Eye(StateDim) // q <- q + q + B u = 2q + Bu
	b := linalg.NewMat(StateDim, 1)
	b.Set(0, 0, 1)
	q := []float64{1, 2, 3, 4}
	StepDynamics(a, b, q, 0.5)
	want := []float64{2.5, 4, 6, 8}
	for i := range q {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
}

func TestExpectedShape(t *testing.T) {
	f, v, e := ExpectedShape(10)
	if f != 22 || v != 11 || e != 32 {
		t.Fatalf("shape = %d/%d/%d", f, v, e)
	}
}

func TestBuildMatchesShape(t *testing.T) {
	for _, k := range []int{1, 5, 50} {
		p, err := Build(Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		g := p.Graph
		wantF, wantV, wantE := ExpectedShape(k)
		if g.NumFunctions() != wantF || g.NumVariables() != wantV || g.NumEdges() != wantE {
			t.Fatalf("K=%d: got F=%d V=%d E=%d, want %d/%d/%d",
				k, g.NumFunctions(), g.NumVariables(), g.NumEdges(), wantF, wantV, wantE)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{K: 0}); err == nil {
		t.Fatal("expected K error")
	}
	if _, err := Build(Config{K: 2, QDiag: []float64{1}}); err == nil {
		t.Fatal("expected QDiag error")
	}
	if _, err := Build(Config{K: 2, Q0: []float64{1}}); err == nil {
		t.Fatal("expected Q0 error")
	}
	if _, err := Build(Config{K: 2, A: linalg.Eye(2), B: linalg.NewMat(2, 1)}); err == nil {
		t.Fatal("expected dynamics-shape error")
	}
}

func TestADMMMatchesExactQP(t *testing.T) {
	cfg := Config{K: 4, Rho: 1, Alpha: 1}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	res, err := admm.Run(p.Graph, admm.Options{MaxIter: 30000, AbsTol: 1e-11, RelTol: 1e-11, CheckEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	uStar, costStar, err := SolveExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range uStar {
		if got := p.Input(s); math.Abs(got-uStar[s]) > 1e-4*(1+math.Abs(uStar[s])) {
			t.Fatalf("u(%d) = %g, exact %g (converged=%v iters=%d)", s, got, uStar[s], res.Converged, res.Iterations)
		}
	}
	if got := p.Cost(); math.Abs(got-costStar) > 1e-5*(1+costStar) {
		t.Fatalf("cost = %g, exact %g", got, costStar)
	}
	if r := p.DynamicsResidual(); r > 1e-5 {
		t.Fatalf("dynamics residual %g", r)
	}
	// Initial state honored.
	q0 := p.State(0)
	for i, v := range cfg.Q0 {
		if false { // cfg.Q0 nil -> defaults; read from problem config
			_ = v
		}
		if math.Abs(q0[i]-p.Cfg.Q0[i]) > 1e-6 {
			t.Fatalf("q(0) = %v, want %v", q0, p.Cfg.Q0)
		}
	}
}

func TestSolveExactGradientIsZero(t *testing.T) {
	// Finite-difference check that SolveExact's u is stationary.
	cfg := Config{K: 3}
	u, cost, err := SolveExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.defaults()
	eval := func(us []float64) float64 {
		var total float64
		q := append([]float64(nil), cfg.Q0...)
		for t := 0; t <= cfg.K; t++ {
			var ut float64
			if t < cfg.K {
				ut = us[t]
			}
			for i := 0; i < StateDim; i++ {
				total += cfg.QDiag[i] * q[i] * q[i]
			}
			total += cfg.RDiag[0] * ut * ut
			if t < cfg.K {
				StepDynamics(cfg.A, cfg.B, q, ut)
			}
		}
		return total
	}
	if got := eval(u); math.Abs(got-cost) > 1e-9*(1+cost) {
		t.Fatalf("reported cost %g, re-evaluated %g", cost, got)
	}
	const h = 1e-6
	for s := range u {
		up := append([]float64(nil), u...)
		up[s] += h
		um := append([]float64(nil), u...)
		um[s] -= h
		grad := (eval(up) - eval(um)) / (2 * h)
		if math.Abs(grad) > 1e-5 {
			t.Fatalf("gradient at u[%d] = %g, want ~0", s, grad)
		}
	}
}

func TestSetInitialStateRetargetsClamp(t *testing.T) {
	p, err := Build(Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	newQ0 := []float64{0.5, 0, -0.2, 0}
	p.SetInitialState(newQ0)
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 5000}); err != nil {
		t.Fatal(err)
	}
	q0 := p.State(0)
	for i := range newQ0 {
		if math.Abs(q0[i]-newQ0[i]) > 1e-4 {
			t.Fatalf("q(0) = %v, want %v", q0, newQ0)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad state length")
		}
	}()
	p.SetInitialState([]float64{1})
}

func TestClosedLoopStabilizesPendulum(t *testing.T) {
	p, err := Build(Config{K: 25, RDiag: []float64{0.01}})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	c, err := NewController(p, 4000, 800)
	if err != nil {
		t.Fatal(err)
	}
	q0 := []float64{0, 0, 0.15, 0} // pole tilted 0.15 rad
	traj, inputs, err := SimulateClosedLoop(c, q0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 31 || len(inputs) != 30 {
		t.Fatalf("trajectory lengths %d/%d", len(traj), len(inputs))
	}
	// The closed loop must shrink the pole angle substantially.
	angle0 := math.Abs(traj[0][2])
	angleEnd := math.Abs(traj[len(traj)-1][2])
	if angleEnd > angle0/2 {
		t.Fatalf("pole angle did not shrink: %g -> %g", angle0, angleEnd)
	}
	// States must remain bounded (no instability).
	for k, q := range traj {
		for _, v := range q {
			if math.Abs(v) > 10 {
				t.Fatalf("state blew up at cycle %d: %v", k, q)
			}
		}
	}
}

func TestControllerValidation(t *testing.T) {
	p, err := Build(Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(p, 0, 5); err == nil {
		t.Fatal("expected warmup error")
	}
	if _, err := NewController(p, 5, 0); err == nil {
		t.Fatal("expected per-cycle error")
	}
	c, _ := NewController(p, 5, 5)
	if _, _, err := SimulateClosedLoop(c, []float64{1}, 2); err == nil {
		t.Fatal("expected state-length error")
	}
}

func TestVarDegreesMatchFigure9(t *testing.T) {
	// Interior variable nodes: cost + two dynamics = 3; endpoints differ.
	p, err := Build(Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	if got := g.VarDegree(0); got != 3 { // cost + dynamics + clamp
		t.Fatalf("var 0 degree = %d, want 3", got)
	}
	for tt := 1; tt < 5; tt++ {
		if got := g.VarDegree(tt); got != 3 { // cost + two dynamics
			t.Fatalf("var %d degree = %d, want 3", tt, got)
		}
	}
	if got := g.VarDegree(5); got != 2 { // cost + one dynamics
		t.Fatalf("var K degree = %d, want 2", got)
	}
}

// TestDynamicsProjectionMatchesSolveFormula checks the gain form of the
// projection, v - K (C v - d), on the real 4x10 dynamics constraint
// against the formula it replaced: lambda from a Cholesky solve with the
// Gram matrix C W C^T, then v - W C^T lambda.
func TestDynamicsProjectionMatchesSolveFormula(t *testing.T) {
	c := dynamicsConstraint(PaperSystem())
	m, n := c.Rows, c.Cols
	d := []float64{0.3, -0.1, 0.2, 0.05}
	rho := make([]float64, n)
	for j := range rho {
		rho[j] = 0.7 // edge to v_t
		if j >= BlockDim {
			rho[j] = 3.5 // edge to v_{t+1}
		}
	}
	p, err := linalg.NewAffineProjector(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Precompute(rho); err != nil {
		t.Fatal(err)
	}
	gram := linalg.NewMat(m, m)
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			var s float64
			for j := 0; j < n; j++ {
				s += c.At(i, j) * c.At(k, j) / rho[j]
			}
			gram.Set(i, k, s)
		}
	}
	rng := rand.New(rand.NewSource(5))
	got := make([]float64, n)
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64() * 2
		}
		r := make([]float64, m)
		c.MulVec(r, v)
		linalg.SubTo(r, r, d)
		lambda, err := linalg.SolveSPD(gram, r)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for j := range want {
			var s float64
			for i := 0; i < m; i++ {
				s += c.At(i, j) * lambda[i]
			}
			want[j] = v[j] - s/rho[j]
		}
		p.Project(got, v)
		if rel := linalg.Dist2(got, want) / linalg.Norm2(want); rel > 1e-12 {
			t.Fatalf("trial %d: gain form differs from solve form by %.3g (relative)", trial, rel)
		}
		if res := p.Residual(got); res > 1e-12 {
			t.Fatalf("trial %d: residual %g", trial, res)
		}
	}
}

// TestShardedAdaptiveRhoMatchesSerial runs a badly tuned chain under two
// shards with rho adaptation. Each rho change sends both shards' dynamics
// nodes, which share one projection gain, to publish a new one at the
// same moment; the iterates must still equal the serial run's bit for
// bit. Run with -race.
func TestShardedAdaptiveRhoMatchesSerial(t *testing.T) {
	run := func(executor string) *Problem {
		p, err := Build(Config{K: 300, Rho: 200})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		var spec admm.ExecutorSpec
		if err := json.Unmarshal([]byte(executor), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := admm.Solve(p.Graph, admm.SolveOptions{
			Executor: spec, MaxIter: 400, AbsTol: 1e-12, RelTol: 1e-12, CheckEvery: 20,
			Adapt: &admm.AdaptConfig{Mu: 2, Tau: 2},
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := run(`{"kind":"serial"}`)
	got := run(`{"kind":"sharded","shards":2}`)
	if ref.Graph.Rho[0] == 200 {
		t.Fatal("adaptation never fired: the rho-change path was not exercised")
	}
	for e := range ref.Graph.Rho {
		if got.Graph.Rho[e] != ref.Graph.Rho[e] {
			t.Fatalf("rho diverged at edge %d: %g vs %g", e, got.Graph.Rho[e], ref.Graph.Rho[e])
		}
	}
	for i := range ref.Graph.Z {
		if got.Graph.Z[i] != ref.Graph.Z[i] {
			t.Fatalf("sharded adaptive solve diverged from serial at Z[%d]: %g vs %g", i, got.Graph.Z[i], ref.Graph.Z[i])
		}
	}
}
