package linalg_test

import (
	"math"
	"testing"

	"repro/internal/admm"
	"repro/internal/linalg"
	"repro/internal/mpc"
)

// TestMPCSolveMatchesGoLoops solves an mpc chain (k=400, 300 iterations,
// serial) with the AVX2 kernels and again on the Go loops, and requires
// the same z to the last bit. The benchmark's answer check and the
// conformance pins compare solves that all take the same kernel, so they
// cannot see a kernel that rounds otherwise than the Go loops; this
// test, across 300 iterations of 400 projections each, can.
func TestMPCSolveMatchesGoLoops(t *testing.T) {
	if !linalg.AVX2() {
		t.Skip("no AVX2 kernels on this CPU or architecture")
	}
	solve := func() []float64 {
		p, err := mpc.Build(mpc.Config{K: 400})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 300}); err != nil {
			t.Fatal(err)
		}
		return p.Graph.Z
	}
	z := solve()
	linalg.ForceGo(t)
	want := solve()
	for i := range want {
		if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
			t.Fatalf("z[%d] is %#x (%g) with the AVX2 kernels, %#x (%g) on the Go loops",
				i, math.Float64bits(z[i]), z[i], math.Float64bits(want[i]), want[i])
		}
	}
}
