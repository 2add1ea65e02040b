package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// referenceProject is the projection as two plain loops over row-major C
// and K^T: every residual of v, then the gain rows subtracted from v in
// order. It shares nothing with AffineProjector past NewCholesky, so it
// also checks the interleaved layout Precompute builds.
func referenceProject(t *testing.T, c *Mat, d, rho, v []float64) {
	m, n := c.Rows, c.Cols
	g := NewMat(m, m)
	for i := 0; i < m; i++ {
		for k := 0; k <= i; k++ {
			var s float64
			for j := 0; j < n; j++ {
				s += c.Data[i*n+j] * c.Data[k*n+j] / rho[j]
			}
			g.Data[i*m+k] = s
		}
	}
	ch, err := NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	gain := make([]float64, m*n)
	kj := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := range kj {
			kj[i] = c.Data[i*n+j] / rho[j]
		}
		ch.Solve(kj)
		for i, kji := range kj {
			gain[i*n+j] = kji
		}
	}
	r := make([]float64, m)
	for i := range r {
		s := -d[i]
		for j, cij := range c.Data[i*n : (i+1)*n] {
			s += cij * v[j]
		}
		r[i] = s
	}
	for i, ri := range r {
		for j, kij := range gain[i*n : (i+1)*n] {
			v[j] -= kij * ri
		}
	}
}

// TestAffineProjectMatchesReference pins the blocked kernel to the plain
// loops bit for bit, over every row count: no rows, a
// tail, one block, a block and a tail, and two blocks. No workload in the
// repository has m != 4, so the tails and the multi-block path are
// covered here only. Non-finite inputs must put NaN where the reference
// has it and agree in every bit elsewhere. It runs on the AVX2 kernel
// and on the Go loops.
func TestAffineProjectMatchesReference(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
		for m := 0; m <= 9; m++ {
			for n := max(m, 1); n <= 13; n++ {
				c := &Mat{Rows: m, Cols: n, Data: randVec(rng, m*n)}
				d := randVec(rng, m)
				rho := make([]float64, n)
				for j := range rho {
					rho[j] = 0.5 + 4*rng.Float64()
				}
				p, err := NewAffineProjector(c, d)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Precompute(rho); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 6; trial++ {
					src := randVec(rng, n)
					// Trials 0-1 are finite; later ones hold 1..n non-finite values.
					for k := 0; trial >= 2 && k < 1+rng.Intn(n); k++ {
						src[rng.Intn(n)] = nonFinite[rng.Intn(len(nonFinite))]
					}
					want := append([]float64(nil), src...)
					referenceProject(t, c, d, rho, want)
					orig := append([]float64(nil), src...)
					dst := make([]float64, n)
					Fill(dst, 7) // stale contents must not leak into the result
					p.Project(dst, src)
					for j := range dst {
						if math.Float64bits(src[j]) != math.Float64bits(orig[j]) {
							t.Fatalf("%dx%d trial %d: Project wrote src[%d]", m, n, trial, j)
						}
						if math.IsNaN(want[j]) {
							if !math.IsNaN(dst[j]) {
								t.Fatalf("%dx%d trial %d: dst[%d] = %g, reference is NaN", m, n, trial, j, dst[j])
							}
							continue
						}
						if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%dx%d trial %d: dst[%d] = %x, reference %x", m, n, trial, j,
								math.Float64bits(dst[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	})
}

// TestAffineProjectInPlacePanics: the old signature projected in place;
// the new one must refuse the call that would silently compile, on
// either path (one whole block, so the kernel would take it).
func TestAffineProjectInPlacePanics(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		c := MatFromRows([][]float64{{1, 1, 0, 0, 0}, {0, 1, 1, 0, 0}, {0, 0, 1, 1, 0}, {0, 0, 0, 1, 1}})
		p, err := NewAffineProjector(c, []float64{1, 1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Precompute([]float64{1, 1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Project(v, v) did not panic")
			}
		}()
		v := make([]float64, 5)
		p.Project(v, v)
	})
}
