package prox

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// proxObjective evaluates f(s) + sum_k rho_k/2 ||s_k - n_k||^2 restricted
// to the live components (nd per block).
func proxObjective(f func(s []float64) float64, s, n, rho []float64, d, nd int) float64 {
	deg := len(rho)
	live := make([]float64, 0, deg*nd)
	val := 0.0
	for k := 0; k < deg; k++ {
		for i := 0; i < nd; i++ {
			v := s[k*d+i]
			live = append(live, v)
			dv := v - n[k*d+i]
			val += rho[k] / 2 * dv * dv
		}
	}
	return val + f(live)
}

// checkProx verifies that op.Eval produces a point no worse than random
// feasible perturbations of itself (a first-order optimality smoke test),
// and that padded components pass through unchanged.
func checkProx(t *testing.T, op graph.Op, f func(live []float64) float64,
	feasible func(live []float64) bool, deg, d, nd int, rng *rand.Rand) {
	t.Helper()
	n := make([]float64, deg*d)
	for i := range n {
		n[i] = rng.NormFloat64() * 2
	}
	rho := make([]float64, deg)
	for k := range rho {
		rho[k] = 0.5 + rng.Float64()*2
	}
	x := make([]float64, deg*d)
	op.Eval(x, n, rho, d)

	// Padding passes through.
	for k := 0; k < deg; k++ {
		for i := nd; i < d; i++ {
			if x[k*d+i] != n[k*d+i] {
				t.Fatalf("pad component (%d,%d) = %g, want %g", k, i, x[k*d+i], n[k*d+i])
			}
		}
	}
	live := make([]float64, 0, deg*nd)
	for k := 0; k < deg; k++ {
		live = append(live, x[k*d:k*d+nd]...)
	}
	if feasible != nil && !feasible(live) {
		t.Fatalf("prox output infeasible: %v", live)
	}
	fx := proxObjective(f, x, n, rho, d, nd)
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		t.Fatalf("objective at prox point not finite: %g", fx)
	}
	// Compare against random feasible perturbations.
	pert := make([]float64, deg*d)
	for trial := 0; trial < 300; trial++ {
		copy(pert, x)
		for k := 0; k < deg; k++ {
			for i := 0; i < nd; i++ {
				pert[k*d+i] += rng.NormFloat64() * 0.05
			}
		}
		pl := make([]float64, 0, deg*nd)
		for k := 0; k < deg; k++ {
			pl = append(pl, pert[k*d:k*d+nd]...)
		}
		if feasible != nil && !feasible(pl) {
			continue
		}
		if fp := proxObjective(f, pert, n, rho, d, nd); fp < fx-1e-9 {
			t.Fatalf("found better point: f(pert)=%g < f(x)=%g", fp, fx)
		}
	}
}

func TestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkProx(t, Identity{}, func(s []float64) float64 { return 0 }, nil, 3, 2, 2, rng)
}

func TestBox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	op := Box{Lo: -1, Hi: 1, Dim: 2}
	feas := func(s []float64) bool {
		for _, v := range s {
			if v < -1-1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 2, 3, 2, rng)
}

func TestNonNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	op := NonNeg{Dim: 1}
	feas := func(s []float64) bool {
		for _, v := range s {
			if v < -1e-12 {
				return false
			}
		}
		return true
	}
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 2, 2, 1, rng)
}

func TestL1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lam := 0.7
	op := L1{Lambda: lam, Dim: 2}
	f := func(s []float64) float64 {
		v := 0.0
		for _, x := range s {
			v += lam * math.Abs(x)
		}
		return v
	}
	checkProx(t, op, f, nil, 1, 2, 2, rng)
	// Exact value check: prox of lambda|x| at n with rho: soft(n, lam/rho).
	x := make([]float64, 2)
	op.Eval(x, []float64{2, -0.1}, []float64{1}, 2)
	if !almost(x[0], 1.3) || x[1] != 0 {
		t.Fatalf("L1 eval = %v", x)
	}
}

func TestSemiLasso(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lam := 0.5
	op := SemiLasso{Lambda: lam, Dim: 1}
	f := func(s []float64) float64 {
		v := 0.0
		for _, x := range s {
			v += lam * x
		}
		return v
	}
	feas := func(s []float64) bool {
		for _, v := range s {
			if v < -1e-12 {
				return false
			}
		}
		return true
	}
	checkProx(t, op, f, feas, 1, 2, 1, rng)
	// Closed form (paper eq. 5): (n - lambda/rho)^+.
	x := make([]float64, 1)
	op.Eval(x, []float64{2}, []float64{2}, 1)
	if !almost(x[0], 1.75) {
		t.Fatalf("SemiLasso(2) = %g, want 1.75", x[0])
	}
	op.Eval(x, []float64{0.1}, []float64{2}, 1)
	if x[0] != 0 {
		t.Fatalf("SemiLasso(0.1) = %g, want 0", x[0])
	}
}

func TestSquaredNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := 0.25
	op := SquaredNorm{C: c, Dim: 2}
	f := func(s []float64) float64 { return c / 2 * linalg.Norm2Sq(s) }
	checkProx(t, op, f, nil, 1, 2, 2, rng)
	// Paper Appendix C.2: w = rho/(rho+1) n for C=1.
	op1 := SquaredNorm{C: 1, Dim: 1}
	x := make([]float64, 1)
	op1.Eval(x, []float64{3}, []float64{2}, 1)
	if !almost(x[0], 2.0) {
		t.Fatalf("SquaredNorm = %g, want 2", x[0])
	}
}

func TestSquaredNormNegativeReward(t *testing.T) {
	// Concave reward -delta/2 r^2 with rho > delta: the packing radius
	// operator (paper Appendix A): r = rho n / (rho - delta).
	op := SquaredNorm{C: -0.5, Dim: 1}
	x := make([]float64, 1)
	op.Eval(x, []float64{1}, []float64{1}, 1)
	if !almost(x[0], 2.0) {
		t.Fatalf("reward prox = %g, want 2", x[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbounded subproblem")
		}
	}()
	bad := SquaredNorm{C: -2, Dim: 1}
	bad.Eval(x, []float64{1}, []float64{1}, 1)
}

func TestConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	op := Consensus{Dim: 2}
	feas := func(s []float64) bool {
		// blocks of 2 must be equal
		for k := 2; k < len(s); k += 2 {
			if math.Abs(s[k]-s[0]) > 1e-9 || math.Abs(s[k+1]-s[1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 3, 3, 2, rng)
	// Weighted average check (paper Appendix C.4).
	x := make([]float64, 4)
	op2 := Consensus{Dim: 2}
	op2.Eval(x, []float64{1, 0, 3, 0}, []float64{1, 3}, 2)
	if !almost(x[0], 2.5) || !almost(x[2], 2.5) {
		t.Fatalf("Consensus = %v, want blocks 2.5", x)
	}
}

func TestL2Ball(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	op := L2Ball{R: 1.5, Dim: 2}
	feas := func(s []float64) bool {
		for k := 0; k+2 <= len(s); k += 2 {
			if linalg.Norm2(s[k:k+2]) > 1.5+1e-9 {
				return false
			}
		}
		return true
	}
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 2, 2, 2, rng)
	// Interior point untouched.
	x := make([]float64, 2)
	op.Eval(x, []float64{0.3, 0.4}, []float64{1}, 2)
	if x[0] != 0.3 || x[1] != 0.4 {
		t.Fatalf("interior point moved: %v", x)
	}
}

func TestHalfspace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Constraint s0 + 2 s1 >= 1 over a degree-2 node with nd=1.
	op := Halfspace{A: []float64{1, 2}, B: 1, Dim: 1}
	feas := func(s []float64) bool { return s[0]+2*s[1] >= 1-1e-9 }
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 2, 2, 1, rng)

	// Feasible input is untouched.
	x := make([]float64, 2)
	op.Eval(x, []float64{5, 5}, []float64{1, 1}, 1)
	if x[0] != 5 || x[1] != 5 {
		t.Fatalf("feasible point moved: %v", x)
	}
	// Infeasible input lands exactly on the boundary.
	op.Eval(x, []float64{0, 0}, []float64{1, 1}, 1)
	if g := x[0] + 2*x[1] - 1; math.Abs(g) > 1e-12 {
		t.Fatalf("projection not on boundary: %g", g)
	}
}

func TestHalfspaceWeighted(t *testing.T) {
	// With rho_0 >> rho_1, coordinate 1 absorbs the correction.
	op := Halfspace{A: []float64{1, 1}, B: 2, Dim: 1}
	x := make([]float64, 2)
	op.Eval(x, []float64{0, 0}, []float64{1e6, 1}, 1)
	if !(x[1] > 1.99 && x[0] < 0.01) {
		t.Fatalf("weighted halfspace projection = %v", x)
	}
}

func TestAffineEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Two blocks of dim 2; constraint: block0 == block1 (2 equations).
	c := linalg.MatFromRows([][]float64{
		{1, 0, -1, 0},
		{0, 1, 0, -1},
	})
	op, err := NewAffineEquality(c, []float64{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	feas := func(s []float64) bool {
		return math.Abs(s[0]-s[2]) < 1e-9 && math.Abs(s[1]-s[3]) < 1e-9
	}
	checkProx(t, op, func(s []float64) float64 { return 0 }, feas, 2, 3, 2, rng)
	// Against Consensus: both compute the weighted average.
	n := []float64{1, 2, 0, 3, 0, 0}
	rho := []float64{2, 1}
	xa := make([]float64, 6)
	xc := make([]float64, 6)
	op.Eval(xa, n, rho, 3)
	Consensus{Dim: 2}.Eval(xc, n, rho, 3)
	for i := 0; i < 2; i++ {
		if !almost(xa[i], xc[i]) || !almost(xa[3+i], xc[3+i]) {
			t.Fatalf("AffineEquality %v != Consensus %v", xa, xc)
		}
	}
}

func TestAffineEqualityRhoChangeRefactors(t *testing.T) {
	c := linalg.MatFromRows([][]float64{{1, -1}})
	op, err := NewAffineEquality(c, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	op.Eval(x, []float64{0, 4}, []float64{1, 1}, 1)
	if !almost(x[0], 2) {
		t.Fatalf("equal-rho average = %v", x)
	}
	// Change rho: the cached factorization must be refreshed.
	op.Eval(x, []float64{0, 4}, []float64{3, 1}, 1)
	if !almost(x[0], 1) { // weighted avg (3*0+1*4)/4 = 1
		t.Fatalf("after rho change = %v, want 1", x)
	}
}

func TestAffineEqualityErrors(t *testing.T) {
	c := linalg.MatFromRows([][]float64{{1, -1}})
	if _, err := NewAffineEquality(c, []float64{0}, 0); err == nil {
		t.Fatal("expected dim error")
	}
	c3 := linalg.MatFromRows([][]float64{{1, -1, 2}})
	if _, err := NewAffineEquality(c3, []float64{0}, 2); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := NewAffineEquality(c, []float64{0, 0}, 1); err == nil {
		t.Fatal("expected rhs length error")
	}
}

// TestAffineEqualityClonesShareGain: clones take the gain a sibling
// published for their rho instead of computing one, keep their own when a
// sibling moves to another rho, and give bit for bit what an unshared
// operator gives, with and without padding.
func TestAffineEqualityClonesShareGain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := linalg.NewMat(2, 6)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	rhs := []float64{0.5, -1}
	first, err := NewAffineEquality(c, rhs, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Clone(), first.Clone()
	n := make([]float64, 6)
	for i := range n {
		n[i] = rng.NormFloat64()
	}
	eval := func(op *AffineEquality, rho []float64) []float64 {
		x := make([]float64, 6)
		op.Eval(x, n, rho, 3)
		return x
	}
	alone := func(rho []float64) []float64 {
		op, err := NewAffineEquality(c, rhs, 3)
		if err != nil {
			t.Fatal(err)
		}
		return eval(op, rho)
	}
	same := func(got, want []float64) bool {
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	rho1, rho2 := []float64{1, 2}, []float64{4, 0.5}

	xa := eval(a, rho1)
	xb := eval(b, rho1)
	if a.gain == nil || b.gain != a.gain {
		t.Fatal("second clone did not take the gain the first published")
	}
	if want := alone(rho1); !same(xa, want) || !same(xb, want) {
		t.Fatalf("clones %v %v, unshared operator %v", xa, xb, want)
	}
	// b moves on; a must keep projecting with its own rho.
	if got, want := eval(b, rho2), alone(rho2); !same(got, want) {
		t.Fatalf("after rho change: clone %v, unshared operator %v", got, want)
	}
	if got := eval(a, rho1); !same(got, xa) {
		t.Fatalf("a sibling's rho change altered this node's result: %v vs %v", got, xa)
	}
	eval(a, rho2)
	if a.gain != b.gain {
		t.Fatal("first clone recomputed a gain its sibling had published")
	}

	// The padded path (d > nd) gathers the same live components.
	padded := make([]float64, 8)
	np := []float64{n[0], n[1], n[2], 9, n[3], n[4], n[5], -9}
	a.Eval(padded, np, rho2, 4)
	want := alone(rho2)
	got := []float64{padded[0], padded[1], padded[2], padded[4], padded[5], padded[6]}
	if !same(got, want) || padded[3] != 9 || padded[7] != -9 {
		t.Fatalf("padded eval = %v, want live %v with padding passed through", padded, want)
	}
}

// dynamicsLike is a 4x10 constraint over two d=5 edges with the sparsity
// of the mpc dynamics constraint [-(I+A) -B 0 | I 0].
func dynamicsLike(rng *rand.Rand) *linalg.Mat {
	c := linalg.NewMat(4, 10)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
		c.Set(i, 5+i, 1)
	}
	return c
}

// TestAffineEqualityPerInstanceState: an operator owns no scratch beyond
// the padded path's two buffers, so a Clone is one allocation of at most
// 24 bytes (three pointers: the shared constraint, its gain, its padded
// buffers) and a steady-state Eval none, and Eval projects out of place
// without writing n.
func TestAffineEqualityPerInstanceState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	first, err := NewAffineEquality(dynamicsLike(rng), []float64{0.3, -0.1, 0.2, 0.05}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var clone *AffineEquality // assigned through the closure so the clone escapes
	if a := testing.AllocsPerRun(100, func() { clone = first.Clone() }); a != 1 || clone == nil {
		t.Errorf("Clone allocates %v times, want 1", a)
	}
	// TotalAlloc counts every goroutine's allocations, so one window can
	// charge the runtime's or another test's to Clone: take the smallest
	// of three.
	const clones = 1000
	keep := make([]*AffineEquality, clones)
	per := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = first.Clone()
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		per = min(per, float64(after.TotalAlloc-before.TotalAlloc)/clones)
	}
	if per > 24 {
		t.Errorf("a Clone allocates %.1f bytes, want at most 24", per)
	}
	rho := []float64{0.7, 3.5}
	for _, d := range []int{5, 7} { // nd == d, and the padded path
		op := first.Clone()
		n := make([]float64, 2*d)
		for i := range n {
			n[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), n...)
		x := make([]float64, 2*d)
		op.Eval(x, n, rho, d) // takes or publishes the gain, sizes the padded buffers
		if a := testing.AllocsPerRun(100, func() { op.Eval(x, n, rho, d) }); a != 0 {
			t.Errorf("d=%d: steady-state Eval allocates %v times, want 0", d, a)
		}
		for i := range n {
			if n[i] != orig[i] {
				t.Fatalf("d=%d: Eval wrote n[%d]", d, i)
			}
		}
		live := make([]float64, 0, 10)
		for k := 0; k < 2; k++ {
			live = append(live, x[k*d:k*d+5]...)
			for i := 5; i < d; i++ {
				if x[k*d+i] != n[k*d+i] {
					t.Fatalf("d=%d: padding component %d of block %d not passed through", d, i, k)
				}
			}
		}
		if r := op.gain.proj.Residual(live); r > 1e-12 {
			t.Fatalf("d=%d: Eval result infeasible, residual %g", d, r)
		}
	}
}

func TestQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := linalg.MatFromRows([][]float64{{2, 0.5}, {0.5, 1}})
	lin := []float64{0.3, -0.2}
	op, err := NewQuadratic(q, lin)
	if err != nil {
		t.Fatal(err)
	}
	f := func(s []float64) float64 {
		qs := make([]float64, 2)
		q.MulVec(qs, s)
		return 0.5*linalg.Dot(s, qs) + linalg.Dot(lin, s)
	}
	checkProx(t, op, f, nil, 1, 3, 2, rng)
}

func TestQuadraticRhoCaching(t *testing.T) {
	q := linalg.Eye(1)
	op, err := NewQuadratic(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1)
	op.Eval(x, []float64{4}, []float64{1}, 1)
	if !almost(x[0], 2) { // (1+1)^{-1} * 1*4
		t.Fatalf("rho=1: %v", x)
	}
	op.Eval(x, []float64{4}, []float64{3}, 1)
	if !almost(x[0], 3) { // (1+3)^{-1} * 3*4
		t.Fatalf("rho=3: %v", x)
	}
}

func TestDiagQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := []float64{2, 0.5}
	op := DiagQuadratic{W: w, Dim: 2}
	f := func(s []float64) float64 {
		return 0.5 * (w[0]*s[0]*s[0] + w[1]*s[1]*s[1])
	}
	checkProx(t, op, f, nil, 1, 3, 2, rng)
	// Agreement with the dense Quadratic on a diagonal Q.
	q := linalg.MatFromRows([][]float64{{2, 0}, {0, 0.5}})
	dense, _ := NewQuadratic(q, nil)
	n := []float64{1.2, -3.4, 9}
	rho := []float64{1.7}
	xd := make([]float64, 3)
	xq := make([]float64, 3)
	op.Eval(xd, n, rho, 3)
	dense.Eval(xq, n, rho, 3)
	for i := range xd {
		if !almost(xd[i], xq[i]) {
			t.Fatalf("diag %v != dense %v", xd, xq)
		}
	}
}

func TestClamp(t *testing.T) {
	op := Clamp{Value: []float64{1, 2}}
	x := make([]float64, 3)
	op.Eval(x, []float64{9, 9, 9}, []float64{1}, 3)
	if x[0] != 1 || x[1] != 2 || x[2] != 9 {
		t.Fatalf("Clamp = %v", x)
	}
}

func TestWorkEstimatesPositive(t *testing.T) {
	q := linalg.Eye(2)
	quad, _ := NewQuadratic(q, nil)
	c := linalg.MatFromRows([][]float64{{1, -1}})
	aff, _ := NewAffineEquality(c, []float64{0}, 1)
	ops := []graph.Op{
		Identity{}, Box{Dim: 1}, NonNeg{Dim: 1}, L1{Lambda: 1, Dim: 1},
		SemiLasso{Lambda: 1, Dim: 1}, SquaredNorm{C: 1, Dim: 1},
		Consensus{Dim: 1}, L2Ball{R: 1, Dim: 1},
		Halfspace{A: []float64{1, 1}, B: 0, Dim: 1},
		quad, aff, DiagQuadratic{W: []float64{1}, Dim: 1}, Clamp{Value: []float64{0}},
	}
	for i, op := range ops {
		w := op.Work(2, 2)
		if w.MemWords <= 0 {
			t.Errorf("op %d (%T): MemWords = %g", i, op, w.MemWords)
		}
		if w.Flops < 0 || w.Branchy < 0 || w.Branchy > 1 {
			t.Errorf("op %d (%T): bad work %+v", i, op, w)
		}
	}
}

func TestWorkAdd(t *testing.T) {
	a := graph.Work{Flops: 1, MemWords: 2, Branchy: 0.2}
	b := graph.Work{Flops: 3, MemWords: 4, Branchy: 0.7}
	s := a.Add(b)
	if s.Flops != 4 || s.MemWords != 6 || s.Branchy != 0.7 {
		t.Fatalf("Work.Add = %+v", s)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }
