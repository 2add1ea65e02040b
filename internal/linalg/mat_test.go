package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randSPD(rng *rand.Rand, n int) *Mat {
	a := NewMat(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	// A^T A + n I is SPD.
	spd := Mul(a.T(), a)
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += float64(n)
	}
	return spd
}

func TestMatBasics(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %g", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.Row(0)[0] != 9 {
		t.Fatal("Set/Row mismatch")
	}
	mt := m.T()
	if mt.Rows != 2 || mt.Cols != 3 || mt.At(1, 2) != 6 {
		t.Fatalf("transpose wrong: %v", mt)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone shares storage")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	e.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("Eye*x = %v", y)
		}
	}
}

func TestMulVecAndMul(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{5, 6}, {7, 8}})
	ab := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if ab.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %g, want %g", i, j, ab.At(i, j), want[i][j])
			}
		}
	}
	y := make([]float64, 2)
	a.MulVec(y, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestAddScale(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}})
	b := MatFromRows([][]float64{{3, 4}})
	s := Add(a, Scale(b, 2))
	if s.At(0, 0) != 7 || s.At(0, 1) != 10 {
		t.Fatalf("Add/Scale = %v", s)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := MatFromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	if _, err := NewCholesky(NewMat(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	a := MatFromRows([][]float64{{4, 1}, {1, 3}})
	x, err := SolveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A x = b.
	b := make([]float64, 2)
	a.MulVec(b, x)
	if !almostEq(b[0], 1, 1e-12) || !almostEq(b[1], 2, 1e-12) {
		t.Fatalf("residual: %v", b)
	}
}

func TestAffineProjectorProjectsOntoSubspace(t *testing.T) {
	// Subspace {v in R^3 : v0 + v1 + v2 = 3}.
	c := MatFromRows([][]float64{{1, 1, 1}})
	p, err := NewAffineProjector(c, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	rho := []float64{1, 1, 1}
	if err := p.Precompute(rho); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 3)
	p.Project(v, []float64{0, 0, 0})
	for i := range v {
		if !almostEq(v[i], 1, 1e-12) {
			t.Fatalf("projection = %v, want [1 1 1]", v)
		}
	}
	if r := p.Residual(v); r > 1e-12 {
		t.Fatalf("residual = %g", r)
	}
}

func TestAffineProjectorWeighted(t *testing.T) {
	// With weights, the projection favors moving low-rho coordinates.
	c := MatFromRows([][]float64{{1, 1}})
	p, err := NewAffineProjector(c, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	// rho0 >> rho1: coordinate 1 should absorb nearly all the correction.
	if err := p.Precompute([]float64{1e6, 1}); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 2)
	p.Project(v, []float64{0, 0})
	if !(v[1] > 1.99 && v[0] < 0.01) {
		t.Fatalf("weighted projection = %v, want approx [0 2]", v)
	}
	if r := p.Residual(v); r > 1e-9 {
		t.Fatalf("residual = %g", r)
	}
}

func TestAffineProjectorOptimality(t *testing.T) {
	// KKT check: v - n must be in the row space of C (v-n = W C^T lambda
	// with W = I means v-n is a multiple of each row combination).
	rng := rand.New(rand.NewSource(3))
	c := MatFromRows([][]float64{{1, 2, 0, 1}, {0, 1, 1, -1}})
	p, err := NewAffineProjector(c, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	rho := []float64{1, 1, 1, 1}
	if err := p.Precompute(rho); err != nil {
		t.Fatal(err)
	}
	// The same C with a zero right-hand side projects onto its null space.
	pd, err := NewAffineProjector(c, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := pd.Precompute(rho); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		n := make([]float64, 4)
		for i := range n {
			n[i] = rng.NormFloat64() * 5
		}
		v := make([]float64, 4)
		p.Project(v, n)
		if r := p.Residual(v); r > 1e-10 {
			t.Fatalf("infeasible projection, residual %g", r)
		}
		// Any feasible direction d (C d = 0) must be orthogonal to v-n.
		// Null space basis of C (found by hand for this C):
		// d with C d = 0. Use two random null vectors via projection.
		for k := 0; k < 5; k++ {
			raw := make([]float64, 4)
			for i := range raw {
				raw[i] = rng.NormFloat64()
			}
			// Project onto null space: d = raw - C^T (C C^T)^{-1} C raw.
			d := make([]float64, 4)
			pd.Project(d, raw)
			diff := make([]float64, 4)
			SubTo(diff, v, n)
			if dot := Dot(diff, d); math.Abs(dot) > 1e-8 {
				t.Fatalf("v-n not orthogonal to feasible direction: %g", dot)
			}
		}
	}
}

func TestAffineProjectorErrors(t *testing.T) {
	c := MatFromRows([][]float64{{1, 1}})
	if _, err := NewAffineProjector(c, []float64{1, 2}); err == nil {
		t.Fatal("expected rhs length error")
	}
	p, _ := NewAffineProjector(c, []float64{1})
	if err := p.Precompute([]float64{1}); err == nil {
		t.Fatal("expected weight length error")
	}
	if err := p.Precompute([]float64{1, -1}); err == nil {
		t.Fatal("expected nonpositive weight error")
	}
	// Rank-deficient C: duplicate rows make C W C^T singular.
	cd := MatFromRows([][]float64{{1, 1}, {1, 1}})
	pd, _ := NewAffineProjector(cd, []float64{1, 1})
	if err := pd.Precompute([]float64{1, 1}); err == nil {
		t.Fatal("expected rank-deficiency error")
	}
}
