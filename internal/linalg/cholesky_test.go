package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// textbookSolve is the reference the blocked kernels are checked against:
// an unblocked full-storage Cholesky factorization and the two plain
// substitutions, one dot product per row.
func textbookSolve(t *testing.T, a *Mat, b []float64) []float64 {
	t.Helper()
	n := a.Rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					t.Fatalf("reference factorization: pivot %d = %g", i, s)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x
}

// checkSolution asserts x solves a x = b to the kernel contract: within
// 1e-12 of the textbook solution relative to its norm, and with a residual
// below 1e-10 |b|.
func checkSolution(t *testing.T, a *Mat, b, x []float64) {
	t.Helper()
	want := textbookSolve(t, a, b)
	if rel := Dist2(x, want) / Norm2(want); rel > 1e-12 {
		t.Errorf("differs from the textbook solution by %.3g (relative)", rel)
	}
	ax := make([]float64, len(b))
	a.MulVec(ax, x)
	if res := Dist2(ax, b); res > 1e-10*Norm2(b) {
		t.Errorf("residual |Ax-b| = %.3g, |b| = %.3g", res, Norm2(b))
	}
}

// kernelSizes hits every tail of the four-row blocking, and the lasso
// size on both sides.
var kernelSizes = []int{1, 2, 3, 5, 8, 63, 64, 127, 128, 130}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestCholeskyMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range kernelSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			a := randSPD(rng, n)
			ch, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			if ch.N() != n {
				t.Fatalf("N() = %d", ch.N())
			}
			for trial := 0; trial < 3; trial++ {
				b := randVec(rng, n)
				x := append([]float64(nil), b...)
				ch.Solve(x)
				checkSolution(t, a, b, x)
			}
		})
	}
}

// TestRidgeMatchesTextbook moves rho back and forth, so every solve after
// the first runs on a factor rebuilt in the buffers of another.
func TestRidgeMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range kernelSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			q := randSPD(rng, n)
			r, err := NewRidge(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, rho := range []float64{1, 1, 7.5, 0.25, 1} {
				shifted := q.Clone()
				for i := 0; i < n; i++ {
					shifted.Data[i*n+i] += rho
				}
				b := randVec(rng, n)
				x := append([]float64(nil), b...)
				if err := r.Solve(rho, x); err != nil {
					t.Fatal(err)
				}
				checkSolution(t, shifted, b, x)
			}
		})
	}
}

func TestRidgeErrorsAndRecovers(t *testing.T) {
	if _, err := NewRidge(NewMat(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	// Q = -I: Q + rho I is positive definite only for rho > 1.
	r, err := NewRidge(Scale(Eye(3), -1))
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	if err := r.Solve(0.5, b); err == nil {
		t.Fatal("expected error: Q + rho I is negative definite")
	}
	if err := r.Solve(0.5, b); err == nil {
		t.Fatal("a failed factorization must not be taken for a cached one")
	}
	if err := r.Solve(3, b); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.5, 1, 1.5} {
		if !almostEq(b[i], want, 1e-15) {
			t.Fatalf("x = %v, want [0.5 1 1.5]", b)
		}
	}
}

// TestRidgeSolveAllocs: neither a solve nor a refactorization on a rho
// change allocates.
func TestRidgeSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r, err := NewRidge(randSPD(rng, 20))
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, 20)
	rho := 1.0
	if allocs := testing.AllocsPerRun(10, func() {
		rho += 0.5
		if err := r.Solve(rho, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Solve with a new rho allocates %.1f objects", allocs)
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := NewMat(7, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	got, want := Gram(a), Mul(a.T(), a)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Gram differs from Mul(a.T(), a) at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestAffineProjectorIdempotent: a projected point is feasible to 1e-12
// and projecting it again leaves it where it is.
func TestAffineProjectorIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	c := NewMat(4, 10)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	p, err := NewAffineProjector(c, randVec(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	rho := make([]float64, 10)
	for i := range rho {
		rho[i] = 0.5 + rng.Float64()*4
	}
	if err := p.Precompute(rho); err != nil {
		t.Fatal(err)
	}
	once, twice := make([]float64, 10), make([]float64, 10)
	for trial := 0; trial < 20; trial++ {
		p.Project(once, randVec(rng, 10))
		if r := p.Residual(once); r > 1e-12 {
			t.Fatalf("residual after projection = %g", r)
		}
		p.Project(twice, once)
		if d := Dist2(twice, once); d > 1e-12*Norm2(once) {
			t.Fatalf("second projection moved the point by %g", d)
		}
	}
}
