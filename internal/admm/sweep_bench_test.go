package admm_test

import (
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// streamingShapes are the graphs the streaming-pass benchmarks sweep:
// the random d=1 consensus graph, and the benchmark's packing and mpc
// problems (d = 2 and 5) with svm's d = 3 between them, each advanced
// ten serial iterations from its start so the sweeps see solver-like
// values.
func streamingShapes(b *testing.B) []struct {
	name string
	g    *graph.Graph
} {
	pk, err := packing.FromSpec(packing.Spec{N: 64})
	if err != nil {
		b.Fatal(err)
	}
	pk.InitRandom(rand.New(rand.NewSource(1)))
	sv, err := svm.FromSpec(svm.Spec{N: 400})
	if err != nil {
		b.Fatal(err)
	}
	sv.Graph.InitZero()
	mp, err := mpc.FromSpec(mpc.Spec{K: 16000})
	if err != nil {
		b.Fatal(err)
	}
	mp.Graph.InitZero()
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"consensus-4096", admm.BenchGraph(b, 4096)},
		{"packing-n64", pk.Graph},
		{"svm-n400", sv.Graph},
		{"mpc-k16000", mp.Graph},
	}
	var ph [admm.NumPhases]int64
	for _, s := range shapes {
		admm.NewSerialFused().Iterate(s.g, 10, &ph)
	}
	return shapes
}

// BenchmarkStreamingPassReference times the reference schedule's
// streaming work after the x-update: the m, z, u and n passes.
func BenchmarkStreamingPassReference(b *testing.B) {
	for _, s := range streamingShapes(b) {
		g := s.g
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				admm.UpdateMRange(g, 0, g.NumEdges())
				admm.UpdateZRange(g, 0, g.NumVariables())
				admm.UpdateURange(g, 0, g.NumEdges())
				admm.UpdateNRange(g, 0, g.NumEdges())
			}
		})
	}
}

// BenchmarkStreamingPassFused times the fused schedule's work after the
// x-update: two-pass is the z gather then the u/n sweep over edges, the
// same arithmetic in two passes; go and avx2 are the one sweep
// (UpdateZUNRange) every executor runs, on its Go loops and on the AVX2
// kernel.
func BenchmarkStreamingPassFused(b *testing.B) {
	for _, s := range streamingShapes(b) {
		g := s.g
		b.Run(s.name+"/two-pass", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				admm.UpdateZFusedRange(g, 0, g.NumVariables())
				admm.UpdateUNRange(g, 0, g.NumEdges())
			}
		})
		sweep := func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admm.UpdateZUNRange(g, 0, g.NumVariables())
			}
		}
		b.Run(s.name+"/go", func(b *testing.B) {
			admm.ForceGoSweep(b)
			sweep(b)
		})
		if admm.SweepAVX2() {
			b.Run(s.name+"/avx2", sweep)
		}
	}
}
