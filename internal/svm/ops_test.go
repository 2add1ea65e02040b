package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/linalg"
)

// referenceNormOpEval is NormOp.Eval as it stood before its element
// loops: the builtin copy of the whole block, then the shrunk w.
func referenceNormOpEval(p NormOp, x, n, rho []float64, d int) {
	copy(x, n) // bias + pads
	s := rho[0] / (rho[0] + p.C)
	for j := 0; j < p.WDim && j < d; j++ {
		x[j] = s * n[j]
	}
}

// referenceMarginOpEval is MarginOp.Eval as it stood before its element
// loop.
func referenceMarginOpEval(p MarginOp, x, n, rho []float64, d int) {
	wd := len(p.X)
	copy(x, n)
	nw := n[:wd]
	nb := n[wd]
	nxi := n[d]
	margin := p.Y*(linalg.Dot(nw, p.X)+nb) - 1 + nxi
	if margin >= 0 {
		return
	}
	rp, rs := rho[0], rho[1]
	den := (linalg.Norm2Sq(p.X)+1)/rp + 1/rs
	alpha := -margin / den
	for j := 0; j < wd; j++ {
		x[j] = nw[j] + alpha/rp*p.Y*p.X[j]
	}
	x[wd] = nb + alpha/rp*p.Y
	x[d] = nxi + alpha/rs
}

// opMismatch runs eval and ref on one input, each into an output
// pre-filled with a NaN no operator computes, and describes the first
// output whose bits differ ("" when none does).
func opMismatch(eval, ref func(x []float64), size int) string {
	const sentinel = 0x7ff8_dead_beef_0001
	got, want := make([]float64, size), make([]float64, size)
	for i := range got {
		got[i] = math.Float64frombits(sentinel)
		want[i] = got[i]
	}
	eval(got)
	ref(want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("x[%d] = %v (%#x), reference %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// TestOpsMatchReference pins NormOp and MarginOp to their copy-based
// forms: every output bit, pads included, on random blocks and on
// blocks carrying signed zeros, infinities, NaNs with two payloads and
// subnormals, with WDim below, at and past the block's w part.
func TestOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0bad), 5e-324, -2.2e-308, 1e300}
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for trial := 0; trial < 20000; trial++ {
		wd := 1 + rng.Intn(4)
		d := wd + 1 + rng.Intn(2) // (w, b) plus up to one pad
		n := make([]float64, 2*d)
		for i := range n {
			n[i] = value()
		}
		rho := []float64{rng.ExpFloat64(), rng.ExpFloat64()}
		if rng.Intn(8) == 0 {
			rho[rng.Intn(2)] = value()
		}
		norm := NormOp{C: rng.ExpFloat64(), WDim: wd + rng.Intn(3) - 1}
		if msg := opMismatch(
			func(x []float64) { norm.Eval(x, n[:d], rho[:1], d) },
			func(x []float64) { referenceNormOpEval(norm, x, n[:d], rho[:1], d) }, d); msg != "" {
			t.Fatalf("NormOp%+v n=%v rho=%v: %s", norm, n[:d], rho[:1], msg)
		}
		margin := MarginOp{X: make([]float64, wd), Y: float64(1 - 2*rng.Intn(2))}
		for j := range margin.X {
			margin.X[j] = rng.NormFloat64()
		}
		if msg := opMismatch(
			func(x []float64) { margin.Eval(x, n, rho, d) },
			func(x []float64) { referenceMarginOpEval(margin, x, n, rho, d) }, 2*d); msg != "" {
			t.Fatalf("MarginOp%+v n=%v rho=%v: %s", margin, n, rho, msg)
		}
	}
}

// BenchmarkSVMIterate times one fused serial iteration of the serving
// mix's svm shapes (ns/op is ns per iteration).
func BenchmarkSVMIterate(b *testing.B) {
	for _, n := range []int{40, 200} {
		p, err := FromSpec(Spec{N: n, Dim: 2, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		g := p.Graph
		g.InitZero()
		backend := admm.NewSerialFused()
		var ph [admm.NumPhases]int64
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for b.Loop() {
				backend.Iterate(g, 1, &ph)
			}
		})
	}
}
