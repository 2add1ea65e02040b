package admm

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// ParallelForBackend is the paper's first (and measured-faster) OpenMP
// strategy: each iteration runs fork-join parallel loops — three on the
// fused schedule (x, z with the m message formed inside the gather, and
// one merged u/n edge sweep) where the paper's five-loop form has one
// per update kind; the iterates are the same bit for bit. Workers is
// the core count (the paper sweeps 1..32). The paper's second strategy,
// persistent workers separated by barriers, is the sharded executor
// over the shared-memory transport (internal/shard).
//
// ZGrouping selects how z-update tasks map to workers: contiguous static
// chunks (the paper's current implementation, whose weakness on skewed
// degree distributions the Conclusion discusses) or degree-balanced
// groups (the paper's proposed fix, implemented in internal/sched).
type ParallelForBackend struct {
	Workers int
	// Dynamic enables self-scheduled (guided) loops instead of static
	// chunks for the x- and z-updates, which have non-uniform task costs.
	Dynamic bool
	// ZGrouping: nil means contiguous chunking; otherwise a precomputed
	// degree-balanced partition from PrepareBalancedZ.
	zGroups [][]int
}

// NewParallelFor returns a fork-join backend with the given worker count.
func NewParallelFor(workers int) *ParallelForBackend {
	if workers <= 0 {
		panic(fmt.Sprintf("admm: workers = %d, need > 0", workers))
	}
	return &ParallelForBackend{Workers: workers}
}

// PrepareBalancedZ precomputes a degree-balanced z-update partition for
// g (items = variable nodes, weights = degrees). Call once after the
// graph is finalized; subsequent Iterate calls use it.
func (b *ParallelForBackend) PrepareBalancedZ(g *graph.Graph) {
	w := make([]float64, g.NumVariables())
	for v := range w {
		w[v] = float64(g.VarDegree(v) * g.D())
	}
	groups, _ := sched.BalancedGroups(w, b.Workers)
	b.zGroups = groups
}

// Name implements Backend.
func (b *ParallelForBackend) Name() string {
	opts := ""
	switch {
	case b.zGroups != nil:
		opts = ",balanced-z"
	case b.Dynamic:
		opts = ",dynamic"
	}
	return fmt.Sprintf("parallel-for(%d%s)", b.Workers, opts)
}

// Close implements Backend.
func (b *ParallelForBackend) Close() {}

// Iterate implements Backend.
func (b *ParallelForBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	w := b.Workers
	loop := func(n int, fn func(lo, hi int)) {
		sched.ParallelFor(w, n, fn)
	}
	heavyLoop := loop
	if b.Dynamic {
		heavyLoop = func(n int, fn func(lo, hi int)) {
			sched.DynamicFor(w, n, 0, fn)
		}
	}
	sw := StartStopwatch()
	for it := 0; it < iters; it++ {
		heavyLoop(g.NumFunctions(), func(lo, hi int) { UpdateXRange(g, lo, hi) })
		sw.Lap(&phaseNanos[PhaseX])

		switch {
		case b.zGroups != nil:
			sched.ParallelFor(len(b.zGroups), len(b.zGroups), func(lo, hi int) {
				for gi := lo; gi < hi; gi++ {
					UpdateZFusedVars(g, b.zGroups[gi])
				}
			})
		default:
			heavyLoop(g.NumVariables(), func(lo, hi int) { UpdateZFusedRange(g, lo, hi) })
		}
		sw.Lap(&phaseNanos[PhaseZ])

		loop(g.NumEdges(), func(lo, hi int) { UpdateUNRange(g, lo, hi) })
		sw.Lap(&phaseNanos[PhaseU])
	}
	return nil
}

var _ Backend = (*ParallelForBackend)(nil)
