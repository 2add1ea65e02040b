package admm

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// ParallelForBackend is the paper's first (and measured-faster) OpenMP
// strategy: each iteration runs fork-join parallel loops — two on the
// fused schedule (x, and the one sweep over variables that gathers z
// with the m message formed inside and runs the merged u/n update over
// each variable's edges) where the paper's five-loop form has one per
// update kind; the iterates are the same bit for bit. Workers is
// the core count (the paper sweeps 1..32). The paper's second strategy,
// persistent workers separated by barriers, is the sharded executor
// over the shared-memory transport (internal/shard).
//
// ZGrouping selects how the sweep's variables map to workers:
// contiguous static chunks (the paper's current implementation, whose
// weakness on skewed degree distributions the Conclusion discusses) or
// degree-balanced groups (the paper's proposed fix, implemented in
// internal/sched).
type ParallelForBackend struct {
	Workers int
	// Dynamic enables self-scheduled (guided) loops instead of static
	// chunks for the x-update and the sweep, which have non-uniform task
	// costs.
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

// RunBlock implements Backend.
func (b *ParallelForBackend) RunBlock(g *graph.Graph, blk Block) (BlockReport, error) {
	return SplitBlock(b.Iterate, g, blk)
}

// Iterate advances g by iters iterations, adding each phase's time.
func (b *ParallelForBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	w := b.Workers
	loop := func(n int, fn func(lo, hi int)) {
		sched.ParallelFor(w, n, fn)
	}
	if b.Dynamic {
		loop = func(n int, fn func(lo, hi int)) {
			sched.DynamicFor(w, n, 0, fn)
		}
	}
	// The sweep is timed as the z phase, as on the serial executor: the
	// u and n buckets stay zero.
	sw := StartStopwatch()
	for it := 0; it < iters; it++ {
		loop(g.NumFunctions(), func(lo, hi int) { UpdateXRange(g, lo, hi) })
		sw.Lap(&phaseNanos[PhaseX])

		switch {
		case b.zGroups != nil:
			sched.ParallelFor(len(b.zGroups), len(b.zGroups), func(lo, hi int) {
				for gi := lo; gi < hi; gi++ {
					for _, v := range b.zGroups[gi] {
						UpdateZUNRange(g, v, v+1)
					}
				}
			})
		default:
			loop(g.NumVariables(), func(lo, hi int) { UpdateZUNRange(g, lo, hi) })
		}
		sw.Lap(&phaseNanos[PhaseZ])
	}
	return nil
}

var _ Backend = (*ParallelForBackend)(nil)
