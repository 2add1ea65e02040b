package admm_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// certShape is one problem the certified stopping decision is checked
// on: a workload spec as serve admits it.
type certShape struct{ workload, spec string }

// certServeShapes are the serving benchmark's shapes: the eight repeated
// small ones and the two mediums.
var certServeShapes = []certShape{
	{"lasso", `{"m":32,"lambda":0.3,"seed":11}`},
	{"lasso", `{"m":48,"lambda":0.3,"seed":12}`},
	{"svm", `{"n":24,"dim":2,"seed":13}`},
	{"svm", `{"n":40,"dim":2,"seed":14}`},
	{"mpc", `{"k":8,"q0":[0,0,0.08,0]}`},
	{"mpc", `{"k":8,"q0":[0,0,0.12,0]}`},
	{"mpc", `{"k":16,"q0":[0,0,0.12,0]}`},
	{"packing", `{"n":4,"seed":15}`},
	{"mpc", `{"k":100,"q0":[0,0,0.1,0]}`},
	{"svm", `{"n":200,"dim":2,"seed":17}`},
}

// certConformanceShapes are the four workloads at the root conformance
// suite's scale.
var certConformanceShapes = []certShape{
	{"lasso", `{"m":48,"lambda":0.3}`},
	{"svm", `{"n":40}`},
	{"mpc", `{"k":12}`},
	{"packing", `{"n":5,"seed":1}`},
}

// buildShape builds a shape from its spec and resets it for a cold
// solve as the serving layer does (packing from its spec's seed). It
// goes through the domain packages, not internal/workload, whose import
// of internal/shard would link the sharded executor into this test
// binary and break the tests that need it unlinked.
func buildShape(t testing.TB, s certShape) *graph.Graph {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatalf("%s %s: %v", s.workload, s.spec, err)
		}
	}
	raw := []byte(s.spec)
	switch s.workload {
	case "lasso":
		var spec lasso.Spec
		must(json.Unmarshal(raw, &spec))
		p, err := lasso.FromSpec(spec)
		must(err)
		p.Graph.InitZero()
		return p.Graph
	case "svm":
		var spec svm.Spec
		must(json.Unmarshal(raw, &spec))
		p, err := svm.FromSpec(spec)
		must(err)
		p.Graph.InitZero()
		return p.Graph
	case "mpc":
		var spec mpc.Spec
		must(json.Unmarshal(raw, &spec))
		p, err := mpc.FromSpec(spec)
		must(err)
		p.Graph.InitZero()
		return p.Graph
	case "packing":
		var spec packing.Spec
		must(json.Unmarshal(raw, &spec))
		p, err := packing.FromSpec(spec)
		must(err)
		p.InitRandom(rand.New(rand.NewSource(spec.Seed)))
		return p.Graph
	}
	t.Fatalf("unknown workload %q", s.workload)
	return nil
}

// TestCertifiedSolvesMatchExact: whole solves with Run's certified
// stopping decision and with the parent's exact one (RunExact) stop at
// the same iteration with the same verdict, residual bits and iterate.
// The serve shapes run at the serving controls; the conformance shapes
// also at tighter, one-sided and adaptive-rho settings, which take the
// exact fallback after every rescale of U.
func TestCertifiedSolvesMatchExact(t *testing.T) {
	type controls struct {
		name           string
		absTol, relTol float64
		adapt          bool
	}
	serving := []controls{{"serving", 1e-4, 1e-4, false}}
	more := append(serving, controls{"tight", 1e-7, 1e-7, false}, controls{"abs-only", 1e-5, 0, false},
		controls{"rel-only", 0, 1e-5, false}, controls{"adaptive", 1e-6, 1e-6, true})
	for i, s := range append(certServeShapes, certConformanceShapes...) {
		ctl := serving
		if i >= len(certServeShapes) {
			ctl = more
		}
		for _, c := range ctl {
			t.Run(s.workload+s.spec+"/"+c.name, func(t *testing.T) {
				solve := func(run func(*graph.Graph, admm.Options) (admm.Result, error)) (admm.Result, []float64) {
					g := buildShape(t, s)
					opts := admm.Options{MaxIter: 2000, Backend: admm.NewSerialFused(), AbsTol: c.absTol, RelTol: c.relTol}
					if c.adapt {
						// Min 1 keeps packing's radius nodes above their
						// rho > delta bound.
						opts.Adapt = &admm.AdaptConfig{Mu: 10, Tau: 2, Min: 1}
					}
					res, err := run(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res, g.Z
				}
				got, gz := solve(admm.Run)
				want, wz := solve(admm.RunExact)
				if got.Iterations != want.Iterations || got.Converged != want.Converged ||
					math.Float64bits(got.Primal) != math.Float64bits(want.Primal) ||
					math.Float64bits(got.Dual) != math.Float64bits(want.Dual) {
					t.Fatalf("certified: %d iterations, converged %v, residuals (%v, %v); exact: %d, %v, (%v, %v)",
						got.Iterations, got.Converged, got.Primal, got.Dual,
						want.Iterations, want.Converged, want.Primal, want.Dual)
				}
				for i := range gz {
					if math.Float64bits(gz[i]) != math.Float64bits(wz[i]) {
						t.Fatalf("Z[%d] = %v, exact solve %v", i, gz[i], wz[i])
					}
				}
			})
		}
	}
}

// BenchmarkConvergenceCheck times one block-boundary check — flush,
// residuals and the stopping decision — the parent's way (ExactCheck:
// flushSubnormals, Residuals, three Norm2) and Run's (CertifiedCheck:
// one pass and a short Z pass), on the state of a 200-iteration solve
// at the serving tolerance.
func BenchmarkConvergenceCheck(b *testing.B) {
	for _, s := range []struct {
		name  string
		shape certShape
	}{
		{"svm-n200", certShape{"svm", `{"n":200,"dim":2,"seed":17}`}},
		{"mpc-k100", certShape{"mpc", `{"k":100,"q0":[0,0,0.1,0]}`}},
		{"mpc-k8", certShape{"mpc", `{"k":8,"q0":[0,0,0.08,0]}`}},
	} {
		g := buildShape(b, s.shape)
		var ph [admm.NumPhases]int64
		backend := admm.NewSerialFused()
		backend.Iterate(g, 199, &ph)
		zPrev := append([]float64(nil), g.Z...)
		backend.Iterate(g, 1, &ph)
		for _, c := range []struct {
			name  string
			check func(*graph.Graph, []float64, float64, float64) (float64, float64, bool)
		}{{"exact", admm.ExactCheck}, {"certified", admm.CertifiedCheck}} {
			b.Run(s.name+"/"+c.name, func(b *testing.B) {
				for b.Loop() {
					c.check(g, zPrev, 1e-4, 1e-4)
				}
			})
		}
	}
}
