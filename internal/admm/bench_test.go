package admm

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// benchGraph builds a random consensus graph: funcs single-edge
// quadratic nodes spread over 64 shared scalar variables, so the
// z-update averages contested variables and all five phases do real
// work.
func benchGraph(b *testing.B, funcs int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const vars = 64
	g := graph.New(1)
	for i := 0; i < funcs; i++ {
		q, err := prox.NewQuadratic(linalg.Eye(1), []float64{rng.NormFloat64()})
		if err != nil {
			b.Fatal(err)
		}
		// First pass touches every variable once so Finalize never sees
		// an isolated variable node.
		v := i % vars
		if i >= vars {
			v = rng.Intn(vars)
		}
		g.AddNode(q, v)
	}
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

func benchmarkIterate(b *testing.B, backend Backend) {
	defer backend.Close()
	g := benchGraph(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	backend.RunBlock(g, Block{Iters: b.N})
}

func BenchmarkIterateSerial(b *testing.B)      { benchmarkIterate(b, NewSerial()) }
func BenchmarkIterateSerialFused(b *testing.B) { benchmarkIterate(b, NewSerialFused()) }
func BenchmarkIterateParallelFor(b *testing.B) { benchmarkIterate(b, NewParallelFor(4)) }
func BenchmarkIterateAsync(b *testing.B)       { benchmarkIterate(b, NewAsync(1)) }

// BenchmarkObjective pins the allocation-free objective path: 0 B/op
// after the graph scratch warms up.
func BenchmarkObjective(b *testing.B) {
	g := benchGraph(b, 512)
	NewSerialFused().Iterate(g, 5, &[NumPhases]int64{})
	Objective(g) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Objective(g)
	}
}

// BenchmarkResiduals pins the allocation-free residual path.
func BenchmarkResiduals(b *testing.B) {
	g := benchGraph(b, 512)
	NewSerialFused().Iterate(g, 5, &[NumPhases]int64{})
	zPrev := g.ScratchZ()
	copy(zPrev, g.Z)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Residuals(g, zPrev)
	}
}
