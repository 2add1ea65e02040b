package admm_test

import (
	"math"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/svm"
)

func svmGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	p, err := svm.FromSpec(svm.Spec{N: n, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	return p.Graph
}

func countSubnormals(v []float64) int {
	n := 0
	for _, f := range v {
		if f != 0 && math.Abs(f) < 0x1p-1022 {
			n++
		}
	}
	return n
}

// TestRunFlushesStuckSubnormalDuals pins Run's block-boundary repair:
// the scaled dual of every non-support point's slack edge in an svm
// graph decays geometrically, goes subnormal near iteration 2033 and —
// without the flush — sticks at the smallest subnormal forever (21
// entries of U on n=24), slowing every later z gather.
func TestRunFlushesStuckSubnormalDuals(t *testing.T) {
	t.Run("residual-blocks", func(t *testing.T) {
		g := svmGraph(t, 24)
		res, err := admm.Run(g, admm.Options{
			MaxIter:     2400,
			Backend:     admm.NewSerialFused(),
			OnIteration: func(int, float64, float64) bool { return true },
		})
		if err != nil || res.Iterations != 2400 {
			t.Fatalf("Run = %+v, %v", res, err)
		}
		if n := countSubnormals(g.U); n != 0 {
			t.Fatalf("%d subnormal entries in U after a 2400-iteration checked run", n)
		}
	})
	// The mpc.Controller pattern: fixed-count runs chained on one graph.
	t.Run("chained-fixed-count", func(t *testing.T) {
		g := svmGraph(t, 24)
		backend := admm.NewSerialFused()
		for run := 0; run < 2; run++ {
			if _, err := admm.Run(g, admm.Options{MaxIter: 1200, Backend: backend}); err != nil {
				t.Fatal(err)
			}
		}
		if n := countSubnormals(g.U); n != 0 {
			t.Fatalf("%d subnormal entries in U after two chained 1200-iteration runs", n)
		}
	})
	// Backend.Iterate alone never flushes: the finding itself (21 stuck
	// entries on amd64), so the subtests above cannot pass because the
	// workload stopped underflowing.
	t.Run("iterate-alone-sticks", func(t *testing.T) {
		g := svmGraph(t, 24)
		var ph [admm.NumPhases]int64
		if err := admm.NewSerialFused().Iterate(g, 3000, &ph); err != nil {
			t.Fatal(err)
		}
		if countSubnormals(g.U) == 0 {
			t.Fatal("no subnormal entry in U after 3000 bare iterations: this graph no longer exercises the flush")
		}
	})
}
