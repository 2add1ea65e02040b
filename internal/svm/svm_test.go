package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/linalg"
)

func TestNormOpRegularizesOnlyW(t *testing.T) {
	op := NormOp{C: 1, WDim: 2}
	d := 4 // (w0, w1, b, pad)
	n := []float64{2, 4, 6, 8}
	x := make([]float64, d)
	op.Eval(x, n, []float64{1}, d)
	if x[0] != 1 || x[1] != 2 { // rho/(rho+C) = 1/2
		t.Fatalf("w not shrunk: %v", x)
	}
	if x[2] != 6 || x[3] != 8 {
		t.Fatalf("bias/pad modified: %v", x)
	}
	if v := op.Value([]float64{3, 4, 9}, d); v != 12.5 {
		t.Fatalf("Value = %g, want 12.5", v)
	}
}

func TestMarginOpFeasibleIdentity(t *testing.T) {
	op := MarginOp{X: []float64{1, 0}, Y: 1}
	d := 3
	// w=(2,0), b=0 -> margin = 2 >= 1 - xi(0): feasible.
	n := []float64{2, 0, 0, 0.0, 9, 9}
	x := make([]float64, 6)
	op.Eval(x, n, []float64{1, 1}, d)
	for i := range n {
		if x[i] != n[i] {
			t.Fatalf("feasible point moved: %v", x)
		}
	}
}

func TestMarginOpActivatesConstraintExactly(t *testing.T) {
	op := MarginOp{X: []float64{1, 1}, Y: -1}
	d := 3
	// w=(1,1), b=0.5: y(w.x+b) = -2.5 < 1 - 0 -> violated.
	n := []float64{1, 1, 0.5, 0, 0, 0}
	x := make([]float64, 6)
	rho := []float64{2, 0.5}
	op.Eval(x, n, rho, d)
	w := x[:2]
	b := x[2]
	xi := x[3]
	if got := op.Y*(linalg.Dot(w, op.X)+b) - (1 - xi); math.Abs(got) > 1e-12 {
		t.Fatalf("constraint not active after projection: %g", got)
	}
	if xi <= 0 {
		t.Fatalf("slack did not grow: %g", xi)
	}
}

func TestMarginOpIsProx(t *testing.T) {
	// Optimality against random feasible perturbations.
	rng := rand.New(rand.NewSource(5))
	op := MarginOp{X: []float64{0.7, -1.2}, Y: 1}
	d := 3
	rho := []float64{1.5, 0.8}
	obj := func(s, n []float64) float64 {
		var v float64
		for j := 0; j < 3; j++ { // plane block live dims
			dv := s[j] - n[j]
			v += rho[0] / 2 * dv * dv
		}
		dv := s[3] - n[3]
		v += rho[1] / 2 * dv * dv
		return v
	}
	feasible := func(s []float64) bool {
		return op.Y*(linalg.Dot(s[:2], op.X)+s[2]) >= 1-s[3]-1e-9
	}
	for trial := 0; trial < 40; trial++ {
		n := make([]float64, 6)
		for i := range n {
			n[i] = rng.NormFloat64()
		}
		x := make([]float64, 6)
		op.Eval(x, n, rho, d)
		s := []float64{x[0], x[1], x[2], x[3]}
		nn := []float64{n[0], n[1], n[2], n[3]}
		if !feasible(s) {
			t.Fatalf("prox output infeasible: %v", s)
		}
		base := obj(s, nn)
		for k := 0; k < 80; k++ {
			pert := append([]float64(nil), s...)
			for i := range pert {
				pert[i] += rng.NormFloat64() * 0.05
			}
			if !feasible(pert) {
				continue
			}
			if obj(pert, nn) < base-1e-9 {
				t.Fatalf("better feasible point exists: %g < %g", obj(pert, nn), base)
			}
		}
	}
}

func TestMarginOpValue(t *testing.T) {
	op := MarginOp{X: []float64{1}, Y: 1}
	if v := op.Value([]float64{2, 0, 0, 0}, 2); v != 0 {
		t.Fatalf("feasible value = %g", v)
	}
	if v := op.Value([]float64{0, 0, 0, 0}, 2); !math.IsInf(v, 1) {
		t.Fatalf("infeasible value = %g", v)
	}
}

func TestTwoGaussians(t *testing.T) {
	ds := TwoGaussians(100, 3, 4, rand.New(rand.NewSource(1)))
	if len(ds.X) != 100 || len(ds.Y) != 100 {
		t.Fatal("wrong sizes")
	}
	pos, neg := 0, 0
	for i, y := range ds.Y {
		if len(ds.X[i]) != 3 {
			t.Fatal("wrong dim")
		}
		if y == 1 {
			pos++
		} else if y == -1 {
			neg++
		} else {
			t.Fatalf("bad label %g", y)
		}
	}
	if pos != 50 || neg != 50 {
		t.Fatalf("unbalanced: %d/%d", pos, neg)
	}
	// Means separated along the first axis.
	var mPos, mNeg float64
	for i := range ds.X {
		if ds.Y[i] > 0 {
			mPos += ds.X[i][0]
		} else {
			mNeg += ds.X[i][0]
		}
	}
	if mPos/50 < mNeg/50+2 {
		t.Fatalf("class means not separated: %g vs %g", mPos/50, mNeg/50)
	}
}

func TestExpectedShapeAndBuild(t *testing.T) {
	ds := TwoGaussians(20, 2, 3, nil)
	p, err := Build(Config{Data: ds})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	wantF, wantV, wantE := ExpectedShape(20)
	if g.NumFunctions() != wantF || g.NumVariables() != wantV || g.NumEdges() != wantE {
		t.Fatalf("shape F=%d V=%d E=%d, want %d/%d/%d",
			g.NumFunctions(), g.NumVariables(), g.NumEdges(), wantF, wantV, wantE)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 2 || p.N() != 20 {
		t.Fatalf("Dim/N = %d/%d", p.Dim(), p.N())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("expected empty-data error")
	}
	ds := TwoGaussians(4, 2, 1, nil)
	bad := ds
	bad.Y = ds.Y[:3]
	if _, err := Build(Config{Data: bad}); err == nil {
		t.Fatal("expected label-count error")
	}
	bad2 := TwoGaussians(4, 2, 1, nil)
	bad2.Y[0] = 0.5
	if _, err := Build(Config{Data: bad2}); err == nil {
		t.Fatal("expected label-value error")
	}
	bad3 := TwoGaussians(4, 2, 1, nil)
	bad3.X[2] = []float64{1}
	if _, err := Build(Config{Data: bad3}); err == nil {
		t.Fatal("expected ragged-dim error")
	}
}

func TestTrainSeparableReachesHighAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := TwoGaussians(30, 2, 6, rng) // well separated
	p, err := Build(Config{Data: ds, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 6000}); err != nil {
		t.Fatal(err)
	}
	if acc := p.Accuracy(ds); acc < 0.95 {
		t.Fatalf("training accuracy %.2f < 0.95", acc)
	}
	// Plane copies must have come close to consensus.
	w, _ := p.Plane()
	if spread := p.PlaneSpread(); spread > 0.2*(1+linalg.Norm2(w)) {
		t.Fatalf("plane copies far from consensus: spread %g", spread)
	}
	// Slacks near zero for a separable problem.
	var worst float64
	for i := 0; i < p.N(); i++ {
		if s := p.Slack(i); s > worst {
			worst = s
		}
	}
	if worst > 0.5 {
		t.Fatalf("large slack %g on separable data", worst)
	}
	if obj := p.HingeObjective(); math.IsNaN(obj) || obj < 0 {
		t.Fatalf("bad objective %g", obj)
	}
	// Quality reads the plane once and reports the three metrics' bits.
	acc, hinge, spread := p.Quality()
	if acc != p.Accuracy(ds) || math.Float64bits(hinge) != math.Float64bits(p.HingeObjective()) || math.Float64bits(spread) != math.Float64bits(p.PlaneSpread()) {
		t.Fatalf("Quality = %v, %v, %v; the three metrics give %v, %v, %v", acc, hinge, spread, p.Accuracy(ds), p.HingeObjective(), p.PlaneSpread())
	}
}

func TestTrainGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := TwoGaussians(40, 3, 5, rng)
	test := TwoGaussians(200, 3, 5, rng)
	p, err := Build(Config{Data: train, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 6000}); err != nil {
		t.Fatal(err)
	}
	if acc := p.Accuracy(test); acc < 0.9 {
		t.Fatalf("test accuracy %.2f < 0.9", acc)
	}
}

func TestVarDegreeProfileBalanced(t *testing.T) {
	// The paper motivates the copy construction by degree balance: all
	// plane nodes have degree <= 4 and slack nodes degree 2 regardless of N.
	ds := TwoGaussians(16, 2, 2, nil)
	p, err := Build(Config{Data: ds})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph
	for i := 0; i < 16; i++ {
		if dg := g.VarDegree(planeVar(i)); dg > 4 {
			t.Fatalf("plane %d degree %d > 4", i, dg)
		}
		if dg := g.VarDegree(slackVar(i)); dg != 2 {
			t.Fatalf("slack %d degree %d != 2", i, dg)
		}
	}
	s := g.Stats()
	if s.MaxVarDegree > 4 {
		t.Fatalf("max degree %d", s.MaxVarDegree)
	}
}
