package lasso

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/linalg"
)

func TestLeastSquaresOpIsExactProx(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := linalg.NewMat(6, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	y := make([]float64, 6)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	op, err := NewLeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	n := []float64{0.3, -0.7, 1.1}
	x := make([]float64, 3)
	rho := []float64{1.7}
	op.Eval(x, n, rho, 3)
	// KKT: A^T(Ax - y) + rho (x - n) = 0.
	r := make([]float64, 6)
	a.MulVec(r, x)
	for i := range r {
		r[i] -= y[i]
	}
	for j := 0; j < 3; j++ {
		var g float64
		for i := 0; i < 6; i++ {
			g += a.At(i, j) * r[i]
		}
		g += rho[0] * (x[j] - n[j])
		if math.Abs(g) > 1e-10 {
			t.Fatalf("KKT residual at %d: %g", j, g)
		}
	}
	// Rho change must refresh the cached factorization.
	x2 := make([]float64, 3)
	op.Eval(x2, n, []float64{100}, 3)
	if d := linalg.Dist2(x2, n); d > 0.2 {
		t.Fatalf("huge rho should pin prox near n, dist %g", d)
	}
}

func TestLeastSquaresValidation(t *testing.T) {
	a := linalg.NewMat(3, 2)
	if _, err := NewLeastSquares(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSyntheticShapes(t *testing.T) {
	inst := Synthetic(30, 10, 3, 0.1, nil)
	if inst.A.Rows != 30 || inst.A.Cols != 10 || len(inst.Y) != 30 || len(inst.XTrue) != 10 {
		t.Fatal("bad instance shapes")
	}
	nz := 0
	for _, v := range inst.XTrue {
		if v != 0 {
			nz++
		}
	}
	if nz != 3 {
		t.Fatalf("nonzeros = %d", nz)
	}
}

func TestBuildStarShape(t *testing.T) {
	inst := Synthetic(40, 8, 3, 0.05, nil)
	p, err := Build(Config{Inst: inst, Blocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	wantF, wantV, wantE := ExpectedShape(5)
	if g.NumFunctions() != wantF || g.NumVariables() != wantV || g.NumEdges() != wantE {
		t.Fatalf("star shape F=%d V=%d E=%d", g.NumFunctions(), g.NumVariables(), g.NumEdges())
	}
	// Hub degree = B+1: the imbalance pathology.
	if got := g.VarDegree(0); got != 6 {
		t.Fatalf("hub degree = %d, want 6", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("expected empty-instance error")
	}
	inst := Synthetic(10, 4, 2, 0.1, nil)
	if _, err := Build(Config{Inst: inst, Blocks: 50}); err == nil {
		t.Fatal("expected too-many-blocks error")
	}
}

func TestFactorGraphLassoReachesOptimality(t *testing.T) {
	inst := Synthetic(60, 12, 4, 0.02, rand.New(rand.NewSource(3)))
	cfg := Config{Inst: inst, Blocks: 6, Lambda: 0.5, Rho: 1}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 4000, AbsTol: 1e-10, RelTol: 1e-10, CheckEvery: 20}); err != nil {
		t.Fatal(err)
	}
	x := p.Coefficients()
	if gap := p.OptimalityGap(x); gap > 1e-3 {
		t.Fatalf("optimality gap %g", gap)
	}
}

func TestFactorGraphMatchesTwoBlock(t *testing.T) {
	inst := Synthetic(50, 10, 3, 0.05, rand.New(rand.NewSource(5)))
	cfg := Config{Inst: inst, Blocks: 5, Lambda: 0.4, Rho: 1}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 6000, AbsTol: 1e-11, RelTol: 1e-11, CheckEvery: 20}); err != nil {
		t.Fatal(err)
	}
	xa := p.Coefficients()
	xb, err := SolveTwoBlock(cfg, 6000, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	// Both solve the same convex problem: objectives must agree tightly.
	oa, ob := p.Objective(xa), p.Objective(xb)
	if math.Abs(oa-ob) > 1e-4*(1+math.Abs(ob)) {
		t.Fatalf("objectives differ: factor-graph %g, two-block %g", oa, ob)
	}
	for j := range xa {
		if math.Abs(xa[j]-xb[j]) > 1e-2*(1+math.Abs(xb[j])) {
			t.Fatalf("coef %d: %g vs %g", j, xa[j], xb[j])
		}
	}
}

func TestLassoRecoversSupportOnCleanData(t *testing.T) {
	inst := Synthetic(100, 15, 3, 0.0, rand.New(rand.NewSource(8)))
	cfg := Config{Inst: inst, Blocks: 4, Lambda: 0.2, Rho: 1}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 5000, AbsTol: 1e-10, RelTol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	x := p.Coefficients()
	for j, truth := range inst.XTrue {
		if truth != 0 && math.Abs(x[j]) < 1e-3 {
			t.Fatalf("lost true coefficient %d (%g)", j, truth)
		}
		if truth == 0 && math.Abs(x[j]) > 0.2 {
			t.Fatalf("spurious coefficient %d = %g", j, x[j])
		}
	}
}

func TestObjectiveAndGapBasics(t *testing.T) {
	inst := Synthetic(20, 5, 2, 0.1, nil)
	p, err := Build(Config{Inst: inst, Blocks: 2, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, 5)
	if o := p.Objective(zero); o <= 0 {
		t.Fatalf("objective at 0 = %g", o)
	}
	if g := p.OptimalityGap(zero); g < 0 {
		t.Fatalf("gap = %g", g)
	}
}

// TestQualityMatchesColumnWalk pins the metrics' bits: Quality forms
// A^T r row by row, and its gap equals the one from the gradient walked
// down each column of A (the i order every grad_j keeps); its objective,
// summed along with the gradient, equals the residual's squares summed
// on their own.
func TestQualityMatchesColumnWalk(t *testing.T) {
	inst := Synthetic(40, 9, 3, 0.1, rand.New(rand.NewSource(4)))
	p, err := Build(Config{Inst: inst, Blocks: 4, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 9)
		for j := range x {
			if rng.Intn(3) > 0 {
				x[j] = rng.NormFloat64()
			}
		}
		r := make([]float64, inst.A.Rows)
		inst.A.MulVec(r, x)
		for i := range r {
			r[i] -= inst.Y[i]
		}
		var obj0 float64
		for i := range r {
			obj0 += r[i] * r[i]
		}
		obj0 /= 2
		for _, v := range x {
			obj0 += p.Cfg.Lambda * math.Abs(v)
		}
		var want float64
		for j := range x {
			var gj float64
			for i := range r {
				gj += inst.A.At(i, j) * r[i]
			}
			viol := math.Abs(gj) - p.Cfg.Lambda
			switch {
			case x[j] > 1e-8:
				viol = math.Abs(gj + p.Cfg.Lambda)
			case x[j] < -1e-8:
				viol = math.Abs(gj - p.Cfg.Lambda)
			}
			want = math.Max(want, viol)
		}
		obj, gap := p.Quality(x)
		if math.Float64bits(gap) != math.Float64bits(want) {
			t.Fatalf("trial %d: gap %v, column walk %v", trial, gap, want)
		}
		if math.Float64bits(obj) != math.Float64bits(obj0) {
			t.Fatalf("trial %d: objective %v, summed apart %v", trial, obj, obj0)
		}
	}
}
