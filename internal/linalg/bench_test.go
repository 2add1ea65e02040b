package linalg

import (
	"math/rand"
	"testing"
)

// BenchmarkCholeskySolve sweeps solves over 32 factors, the lasso-dense
// working set (32 row blocks of one design matrix), so the factors come
// from L2 and not from L1 as a single-factor loop would have them. An op
// is one solve: n^2 multiply-adds.
func BenchmarkCholeskySolve(b *testing.B) {
	const factors, n = 32, 128
	b.Run("n=128", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		chs := make([]*Cholesky, factors)
		rhs := make([][]float64, factors)
		for f := range chs {
			ch, err := NewCholesky(randSPD(rng, n))
			if err != nil {
				b.Fatal(err)
			}
			chs[f] = ch
			rhs[f] = make([]float64, n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := i % factors
			for k := range rhs[f] {
				rhs[f][k] = float64(k + 1)
			}
			chs[f].Solve(rhs[f])
		}
		b.ReportMetric(n*n*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
	})
}

// BenchmarkAffineProject times the projection kernel alone, one
// precomputed gain: 4x10 is the mpc dynamics constraint (one block), 2x6
// runs only the tail, 8x20 two blocks. An op is one projection: 2*m*n
// multiply-adds.
func BenchmarkAffineProject(b *testing.B) {
	for _, shape := range []struct {
		name string
		m, n int
	}{{"4x10", 4, 10}, {"2x6", 2, 6}, {"8x20", 8, 20}} {
		b.Run(shape.name, func(b *testing.B) {
			m, n := shape.m, shape.n
			rng := rand.New(rand.NewSource(2))
			c := &Mat{Rows: m, Cols: n, Data: randVec(rng, m*n)}
			p, err := NewAffineProjector(c, make([]float64, m))
			if err != nil {
				b.Fatal(err)
			}
			rho := make([]float64, n)
			Fill(rho, 1.5)
			if err := p.Precompute(rho); err != nil {
				b.Fatal(err)
			}
			src, dst := make([]float64, n), make([]float64, n)
			for k := range src {
				src[k] = float64(k + 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Project(dst, src)
			}
			b.ReportMetric(float64(2*m*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		})
	}
}
