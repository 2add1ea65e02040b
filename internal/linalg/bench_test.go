package linalg

import (
	"math/rand"
	"testing"
)

// BenchmarkCholeskySolve sweeps solves over 32 factors, the lasso-dense
// working set (32 row blocks of one design matrix), so the factors come
// from L2 and not from L1 as a single-factor loop would have them. An op
// is one solve of n = 128: n^2 multiply-adds. It runs once on the Go
// loops and once on the AVX2 kernels, where the CPU has them.
func BenchmarkCholeskySolve(b *testing.B) {
	const factors, n = 32, 128
	bench := func(b *testing.B) {
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
	}
	b.Run("go", func(b *testing.B) {
		forceGo(b)
		bench(b)
	})
	if useAVX2 {
		b.Run("avx2", bench)
	}
}

// BenchmarkAffineProject times the projection alone, through one
// precomputed gain: 4x10 is the mpc dynamics constraint (one block), 2x6
// runs only the row tail, 8x20 two blocks. chain is 4x10 over 16 000
// distinct src and dst vectors, the mpc-chain working set (k=16000 nodes
// that share one gain), so they stream from L2 and beyond as in a solve
// and not from L1. An op is one projection: 2*m*n multiply-adds. It runs
// once on the Go loops and once on the AVX2 kernel, where the CPU has it.
func BenchmarkAffineProject(b *testing.B) {
	bench := func(b *testing.B, m, n, vecs int) {
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
		src, dst := randVec(rng, vecs*n), make([]float64, vecs*n)
		b.ResetTimer()
		for i, v := 0, 0; i < b.N; i++ {
			p.Project(dst[v*n:][:n], src[v*n:][:n])
			if v++; v == vecs {
				v = 0
			}
		}
		b.ReportMetric(float64(2*m*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
	}
	shapes := func(b *testing.B) {
		for _, shape := range []struct {
			name       string
			m, n, vecs int
		}{{"4x10", 4, 10, 1}, {"2x6", 2, 6, 1}, {"8x20", 8, 20, 1}, {"chain", 4, 10, 16000}} {
			b.Run(shape.name, func(b *testing.B) { bench(b, shape.m, shape.n, shape.vecs) })
		}
	}
	b.Run("go", func(b *testing.B) {
		forceGo(b)
		shapes(b)
	})
	if useAVX2 {
		b.Run("avx2", shapes)
	}
}
