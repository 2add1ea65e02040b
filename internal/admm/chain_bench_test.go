package admm_test

import (
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
)

// BenchmarkSerialIterTiny keeps the stopwatch's share of a tiny
// iteration visible: ns per iteration through the serial fused
// backend's Iterate (two clock reads) against the same two kernels
// called bare, on two of the bulk generator's shapes. At nine reads per
// iteration the gap was ~300 ns, 30–40 % of these iterations.
func BenchmarkSerialIterTiny(b *testing.B) {
	mp, err := mpc.FromSpec(mpc.Spec{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	lp, err := lasso.FromSpec(lasso.Spec{M: 32, Lambda: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		g    *graph.Graph
	}{{"mpc-k8", mp.Graph}, {"lasso-m32", lp.Graph}}
	for _, s := range shapes {
		g := s.g
		var ph [admm.NumPhases]int64
		backend := admm.NewSerialFused()
		b.Run(s.name+"/iterate", func(b *testing.B) {
			g.InitZero()
			backend.Iterate(g, 5, &ph) // factorization caches
			b.ResetTimer()
			backend.Iterate(g, b.N, &ph)
		})
		b.Run(s.name+"/bare", func(b *testing.B) {
			g.InitZero()
			backend.Iterate(g, 5, &ph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admm.UpdateXRange(g, 0, g.NumFunctions())
				admm.UpdateZUNRange(g, 0, g.NumVariables())
			}
		})
	}
}

// BenchmarkChainedSolve is the bulk pipeline's warm chain in miniature:
// 600 records on one svm n=40 graph, each {WarmState.Apply, 10
// iterations, Capture}. A record has no tolerance, so it never stops
// early: its 10 iterations run as two checked blocks, 1 and 9, with a
// residual check after each. The chain's slack duals
// underflow near iteration 2033 — record 203 — so records 0–199 run
// before it and 400–599 long after; the two ns/record metrics are equal
// while Run flushes the stuck subnormals and ~1.6x apart when it does
// not (docs/bulk.md).
func BenchmarkChainedSolve(b *testing.B) {
	g := svmGraph(b, 40)
	backend := admm.NewSerialFused()
	opts := admm.Options{
		MaxIter:     10,
		Backend:     backend,
		OnIteration: func(int, float64, float64) bool { return true },
	}
	var thirds [3]int64 // records 0–199, 200–399, 400–599
	sw := admm.StartStopwatch()
	for i := 0; i < b.N; i++ {
		g.InitZero()
		var ws admm.WarmState
		for rec := 0; rec < 600; rec++ {
			if ws.Captured() {
				if err := ws.Apply(g); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := admm.Run(g, opts); err != nil {
				b.Fatal(err)
			}
			if !ws.Capture(g) {
				b.Fatal("chain diverged")
			}
			sw.Lap(&thirds[rec/200])
		}
	}
	n := float64(200 * b.N)
	b.ReportMetric(float64(thirds[0])/n, "early-ns/record")
	b.ReportMetric(float64(thirds[2])/n, "late-ns/record")
}
