package prox

import (
	"math/rand"
	"testing"
)

// BenchmarkAffineEqualityEval times one x-update of an mpc dynamics node
// as the executors make it: two d=5 edges, the gain already published.
// Next to linalg's BenchmarkAffineProject/4x10 it shows what the degree
// and rho checks around the kernel cost.
func BenchmarkAffineEqualityEval(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	op, err := NewAffineEquality(dynamicsLike(rng), make([]float64, 4), 5)
	if err != nil {
		b.Fatal(err)
	}
	rho := []float64{0.7, 3.5}
	x, n := make([]float64, 10), make([]float64, 10)
	for i := range n {
		n[i] = rng.NormFloat64()
	}
	op.Eval(x, n, rho, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Eval(x, n, rho, 5)
	}
}
