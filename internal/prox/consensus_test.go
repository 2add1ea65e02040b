package prox

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceCopyPad is copyPad as it stood before its element loop: one
// builtin copy per block.
func referenceCopyPad(x, n []float64, deg, d, nd int) {
	if nd >= d {
		return
	}
	for k := 0; k < deg; k++ {
		off := k * d
		copy(x[off+nd:off+d], n[off+nd:off+d])
	}
}

// referenceConsensusEval is Consensus.Eval as it stood before the
// two-edge path: one generic loop for every degree. The operator must
// write exactly these bits for every input.
func referenceConsensusEval(p Consensus, x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	referenceCopyPad(x, n, deg, d, nd)
	var rhoSum float64
	for _, r := range rho {
		rhoSum += r
	}
	for i := 0; i < nd; i++ {
		var s float64
		for k := 0; k < deg; k++ {
			s += rho[k] * n[k*d+i]
		}
		s /= rhoSum
		for k := 0; k < deg; k++ {
			x[k*d+i] = s
		}
	}
}

// sentinel is a NaN payload no operator computes: outputs are pre-filled
// with it, so a component an implementation forgets to write shows.
const sentinel = 0x7ff8_dead_beef_0001

// bitsMismatch describes the first index where got and want differ in
// their bits ("" when none does). With anyNaN, two NaNs match whatever
// their payloads.
func bitsMismatch(got, want []float64, anyNaN bool) string {
	for i := range got {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("x[%d] = %v (%#x), reference %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// consensusMismatch evaluates Consensus and the reference on one input,
// each into an output pre-filled with the sentinel. NaN payloads are
// compared unless a rho is NaN: then a product can have two NaN
// factors, x86 returns the first operand's payload, and which factor a
// commutative multiply puts first is the compiler's register choice
// (it differs under -race), not the source's operation order.
func consensusMismatch(p Consensus, n, rho []float64, d int) string {
	anyNaN := false
	for _, r := range rho {
		anyNaN = anyNaN || math.IsNaN(r)
	}
	got, want := make([]float64, len(n)), make([]float64, len(n))
	for i := range got {
		got[i] = math.Float64frombits(sentinel)
		want[i] = got[i]
	}
	p.Eval(got, n, rho, d)
	referenceConsensusEval(p, want, n, rho, d)
	if msg := bitsMismatch(got, want, anyNaN); msg != "" {
		return fmt.Sprintf("Dim %d d %d n=%v rho=%v: %s", p.Dim, d, n, rho, msg)
	}
	return ""
}

// adversarialValues are the inputs the two-edge path's operation order
// is pinned on: signed zeros (the leading 0 + turns a -0 sum into +0),
// infinities of both signs (Inf - Inf is NaN), NaNs with two different
// payloads (x86 propagates the first operand's, so the order of the two
// products shows in the bits), subnormals and the ends of the range.
var adversarialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -3.5, 1e300, -1e300, 1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad),
	math.Float64frombits(0xfff4_0000_0000_0001), 5e-324, -5e-324, 2.2e-308, math.MaxFloat64,
}

// TestConsensusEvalMatchesReference pins the two-edge path (and the
// element-loop copyPad under every degree) to the generic operator:
// every output bit, pads included, on random inputs over degrees 1–4,
// d 1–6 and Dim from 0 to past d, and on two-edge nodes over the
// adversarial values in every slot, with equal, unequal, zero, negative
// and non-finite rho.
func TestConsensusEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20000; trial++ {
		deg, d := 1+rng.Intn(4), 1+rng.Intn(6)
		p := Consensus{Dim: rng.Intn(d + 2)}
		n, rho := make([]float64, deg*d), make([]float64, deg)
		for i := range n {
			n[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
		}
		for k := range rho {
			rho[k] = rng.ExpFloat64()
		}
		if msg := consensusMismatch(p, n, rho, d); msg != "" {
			t.Fatal(msg)
		}
	}
	rhos := [][]float64{{1, 1}, {0.7, 3.5}, {3.5, 0.7}, {0, 1}, {0, 0}, {math.Copysign(0, -1), math.Copysign(0, -1)},
		{-1, 1}, {1e300, 1e300}, {5e-324, 5e-324}, {math.Inf(1), 1}, {math.NaN(), 1}, {1, math.Float64frombits(0x7ff8_0000_0000_0bad)}}
	for _, d := range []int{1, 3, 5} {
		for _, dim := range []int{d, d - 1, 0} {
			p := Consensus{Dim: dim}
			for _, rho := range rhos {
				for _, a := range adversarialValues {
					for _, b := range adversarialValues {
						n := make([]float64, 2*d)
						for i := range n {
							n[i] = rng.NormFloat64()
						}
						n[0], n[d] = a, b
						n[d-1], n[2*d-1] = b, a
						if msg := consensusMismatch(p, n, rho, d); msg != "" {
							t.Fatal(msg)
						}
					}
				}
			}
		}
	}
}

// BenchmarkConsensusEval times one equality node's x-update: the svm
// chain's two-edge d=3 node (the two-edge path) and a three-edge one
// (the generic loop).
func BenchmarkConsensusEval(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, deg := range []int{2, 3} {
		const d = 3
		rho := make([]float64, deg)
		x, n := make([]float64, deg*d), make([]float64, deg*d)
		for k := range rho {
			rho[k] = 0.5 + rng.Float64()
		}
		for i := range n {
			n[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("deg%d-d%d", deg, d), func(b *testing.B) {
			for b.Loop() {
				Consensus{Dim: d}.Eval(x, n, rho, d)
			}
		})
	}
}
