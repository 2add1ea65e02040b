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

// BenchmarkAffineProject times the mpc dynamics projection: a 4x10
// constraint, one precomputed gain.
func BenchmarkAffineProject(b *testing.B) {
	b.Run("4x10", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		c := NewMat(4, 10)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		p, err := NewAffineProjector(c, make([]float64, 4))
		if err != nil {
			b.Fatal(err)
		}
		rho := make([]float64, 10)
		Fill(rho, 1.5)
		if err := p.Precompute(rho); err != nil {
			b.Fatal(err)
		}
		v := make([]float64, 10)
		scratch := make([]float64, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range v {
				v[k] = float64(k + 1)
			}
			p.Project(v, scratch)
		}
	})
}
