// Cross-module integration tests: full domain pipelines through
// admm.Run, device-image round trips mid-solve, and backend equivalence
// on the real application domains.
package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// TestPackingEndToEndOnGPU runs the packing domain on the simulated GPU
// and validates the geometry.
func TestPackingEndToEndOnGPU(t *testing.T) {
	p, err := packing.Build(packing.Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.InitRandom(rand.New(rand.NewSource(11)))
	gb := gpusim.NewBackend(nil)
	defer gb.Close()
	res, err := admm.Run(p.Graph, admm.Options{MaxIter: 4000, Backend: gb})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CheckValidity().Valid(1e-3) {
		t.Fatalf("invalid packing on GPU backend: %+v", p.CheckValidity())
	}
	// Simulated phase time must be dominated by x and z (the paper's
	// packing breakdown).
	fr := res.PhaseFractions()
	if fr[admm.PhaseX]+fr[admm.PhaseZ] < 0.4 {
		t.Fatalf("x+z share %.2f implausibly low on GPU", fr[admm.PhaseX]+fr[admm.PhaseZ])
	}
}

// TestBackendsAgreeOnMPC solves one MPC instance on several backends and
// demands identical iterates (they share kernels and schedule).
func TestBackendsAgreeOnMPC(t *testing.T) {
	solve := func(b admm.Backend) []float64 {
		t.Helper()
		p, err := mpc.Build(mpc.Config{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 500, Backend: b}); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(p.Graph.Z))
		copy(out, p.Graph.Z)
		return out
	}
	ref := solve(admm.NewSerial())
	for name, b := range map[string]admm.Backend{
		"parallel": admm.NewParallelFor(3),
		"gpu":      gpusim.NewBackend(nil),
		"multicpu": gpusim.NewMultiCoreBackend(nil, 8),
	} {
		got := solve(b)
		b.Close()
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%s diverged from serial at Z[%d]: %g vs %g", name, i, got[i], ref[i])
			}
		}
	}
}

// TestFacadeSolvesLasso runs the lasso domain end to end through
// admm.Run's default backend and stopping criterion.
func TestFacadeSolvesLasso(t *testing.T) {
	inst := lasso.Synthetic(40, 8, 2, 0.02, rand.New(rand.NewSource(9)))
	p, err := lasso.Build(lasso.Config{Inst: inst, Blocks: 4, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	_, err = admm.Run(p.Graph, admm.Options{MaxIter: 5000, AbsTol: 1e-10, RelTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if gap := p.OptimalityGap(p.Coefficients()); gap > 1e-3 {
		t.Fatalf("optimality gap %g", gap)
	}
}

// TestSimulatedSpeedupBandsAcrossDomains pins the headline reproduction
// claim: each domain's large-instance combined GPU speedup lies in the
// paper's reported neighborhood (packing 16-18x, MPC ~10x, SVM ~18x;
// we accept a generous band; `paradmm-bench fig7 fig10 fig13` prints
// the exact values, and internal/bench/testdata/simulated.golden pins
// them).
func TestSimulatedSpeedupBandsAcrossDomains(t *testing.T) {
	// Packing.
	pp, err := packing.Build(packing.Config{N: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sp := gpusim.CompareGPU(pp.Graph, nil, nil)
	if sp.Combined < 10 || sp.Combined > 25 {
		t.Fatalf("packing combined %.1fx outside band", sp.Combined)
	}
	// MPC.
	pm, err := mpc.Build(mpc.Config{K: 50000})
	if err != nil {
		t.Fatal(err)
	}
	sm := gpusim.CompareGPU(pm.Graph, nil, nil)
	if sm.Combined < 7 || sm.Combined > 25 {
		t.Fatalf("MPC combined %.1fx outside band", sm.Combined)
	}
	// SVM.
	ds := svm.TwoGaussians(50000, 2, 4, rand.New(rand.NewSource(1)))
	ps, err := svm.Build(svm.Config{Data: ds})
	if err != nil {
		t.Fatal(err)
	}
	ss := gpusim.CompareGPU(ps.Graph, nil, nil)
	if ss.Combined < 10 || ss.Combined > 28 {
		t.Fatalf("SVM combined %.1fx outside band", ss.Combined)
	}
	// In every domain the x-update accelerates least among the phases
	// the paper calls hardest (x and z below m/u/n).
	for name, s := range map[string]gpusim.Speedups{"packing": sp, "mpc": sm, "svm": ss} {
		if s.PerPhase[admm.PhaseX] > s.PerPhase[admm.PhaseM] {
			t.Fatalf("%s: x-update (%.1fx) accelerated more than m-update (%.1fx)",
				name, s.PerPhase[admm.PhaseX], s.PerPhase[admm.PhaseM])
		}
	}
}

// TestAdaptiveRhoHelpsBadlyTunedMPC verifies the extension feature ends
// up strictly better than the mis-tuned fixed-rho run.
func TestAdaptiveRhoHelpsBadlyTunedMPC(t *testing.T) {
	run := func(adapt *admm.AdaptConfig) (int, bool) {
		p, err := mpc.Build(mpc.Config{K: 10, Rho: 200})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph.InitZero()
		res, err := admm.Run(p.Graph, admm.Options{
			MaxIter: 40000, AbsTol: 1e-8, RelTol: 1e-8, CheckEvery: 20, Adapt: adapt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations, res.Converged
	}
	fixedIters, fixedOK := run(nil)
	adaptIters, adaptOK := run(&admm.AdaptConfig{Mu: 10, Tau: 2})
	if !adaptOK {
		t.Fatal("adaptive run did not converge")
	}
	if fixedOK && adaptIters >= fixedIters {
		t.Fatalf("adaptive (%d iters) not better than fixed (%d iters)", adaptIters, fixedIters)
	}
}

// TestMathSanity guards a subtle contract: phase fractions from a GPU
// run are simulated, not wall-clock, and must still be normalized.
func TestMathSanity(t *testing.T) {
	p, err := mpc.Build(mpc.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	gb := gpusim.NewBackend(nil)
	res, err := admm.Run(p.Graph, admm.Options{MaxIter: 10, Backend: gb})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range res.PhaseFractions() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum %g", sum)
	}
}
