package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/prox"
)

// chainGraph builds an MPC-like consensus chain.
func chainGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(2)
	for i := 0; i+1 < n; i++ {
		g.AddNode(prox.Consensus{Dim: 2}, i, i+1)
	}
	for i := 0; i < n; i++ {
		g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, i)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(1)))
	return g
}

func runIters(t *testing.T, b admm.Backend, g *graph.Graph, iters int) []float64 {
	t.Helper()
	var nanos [admm.NumPhases]int64
	b.Iterate(g, iters, &nanos)
	out := make([]float64, len(g.Z))
	copy(out, g.Z)
	return out
}

// TestShardedMatchesSerialBitIdentical is the core correctness claim:
// every shard count and every strategy reproduces the serial iterates
// exactly, on both a chain and a dense graph.
func TestShardedMatchesSerialBitIdentical(t *testing.T) {
	builds := map[string]func(testing.TB) *graph.Graph{
		"chain": func(tb testing.TB) *graph.Graph { return chainGraph(tb, 60) },
		"dense": func(tb testing.TB) *graph.Graph {
			p, err := packing.Build(packing.Config{N: 5})
			if err != nil {
				tb.Fatal(err)
			}
			p.InitRandom(rand.New(rand.NewSource(7)))
			return p.Graph
		},
	}
	for gname, build := range builds {
		ref := runIters(t, admm.NewSerial(), build(t), 200)
		for _, strategy := range []graph.PartitionStrategy{
			graph.StrategyBlock, graph.StrategyBalanced, graph.StrategyGreedyMincut,
		} {
			for _, shards := range []int{1, 2, 3, 4, 9} {
				b, err := New(shards, strategy)
				if err != nil {
					t.Fatal(err)
				}
				got := runIters(t, b, build(t), 200)
				b.Close()
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("%s/%s/%d shards: diverged from serial at Z[%d]: %g vs %g",
							gname, strategy, shards, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestShardedSplitIterateCalls checks determinism across Iterate
// batching (admm.Run's residual checking splits iterations).
func TestShardedSplitIterateCalls(t *testing.T) {
	ref := runIters(t, admm.NewSerial(), chainGraph(t, 40), 100)
	b, err := New(3, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g := chainGraph(t, 40)
	var nanos [admm.NumPhases]int64
	for _, step := range []int{1, 9, 40, 50} {
		b.Iterate(g, step, &nanos)
	}
	for i := range ref {
		if ref[i] != g.Z[i] {
			t.Fatalf("split Iterate diverged at Z[%d]", i)
		}
	}
	if got := b.Stats().Iterations; got != 100 {
		t.Fatalf("stats iterations = %d, want 100", got)
	}
}

// TestShardedReuseAndClose is the persistent-worker lifecycle contract
// (ported from the barrier executor this one replaced): a backend serves
// Iterate after Iterate, Close is idempotent, and Iterate on a closed
// backend panics instead of hanging on workers that are gone.
func TestShardedReuseAndClose(t *testing.T) {
	b, err := New(3, graph.StrategyBlock)
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t, 20)
	var nanos [admm.NumPhases]int64
	b.Iterate(g, 3, &nanos)
	b.Iterate(g, 3, &nanos) // reuse after first batch
	b.Close()
	b.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Iterate after Close")
		}
	}()
	b.Iterate(g, 1, &nanos)
}

// TestShardedThroughSolve exercises the declarative path end to end,
// including the factory registration.
func TestShardedThroughSolve(t *testing.T) {
	p, err := mpc.Build(mpc.Config{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	p.Graph.InitZero()
	res, err := admm.Solve(p.Graph, admm.SolveOptions{
		Executor: admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4, Partition: "balanced"},
		MaxIter:  400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 400 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	ref, err := mpc.Build(mpc.Config{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	ref.Graph.InitZero()
	if _, err := admm.Solve(ref.Graph, admm.SolveOptions{MaxIter: 400}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Graph.Z {
		if ref.Graph.Z[i] != p.Graph.Z[i] {
			t.Fatalf("solve path diverged at Z[%d]", i)
		}
	}
}

// TestShardedStats pins the boundary bookkeeping on a chain: few
// boundary vars under the balanced strategy, loads roughly even.
func TestShardedStats(t *testing.T) {
	b, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g := chainGraph(t, 1000)
	runIters(t, b, g, 5)
	s := b.Stats()
	if s.Shards != 4 || s.Strategy != graph.StrategyBalanced {
		t.Fatalf("stats %+v", s)
	}
	if s.BoundaryVars == 0 || s.BoundaryVars > 8 {
		t.Fatalf("chain boundary vars = %d, want 1..8", s.BoundaryVars)
	}
	if s.InteriorVars+s.BoundaryVars != g.NumVariables() {
		t.Fatalf("interior %d + boundary %d != %d vars", s.InteriorVars, s.BoundaryVars, g.NumVariables())
	}
	total := 0
	for _, l := range s.PartEdges {
		total += l
	}
	if total != g.NumEdges() {
		t.Fatalf("part loads sum %d != %d edges", total, g.NumEdges())
	}
	if s.Iterations != 5 {
		t.Fatalf("iterations %d", s.Iterations)
	}
	// Every worker times its own sync points; the vector accumulates
	// across Iterate calls and a returned Stats is a snapshot.
	if len(s.SyncWaitByShard) != 4 || s.SyncWaitNanos != s.SyncWaitByShard[0] {
		t.Fatalf("sync wait %d, by shard %v", s.SyncWaitNanos, s.SyncWaitByShard)
	}
	for w, ns := range s.SyncWaitByShard {
		if ns <= 0 {
			t.Fatalf("shard %d reports no sync wait: %v", w, s.SyncWaitByShard)
		}
	}
	runIters(t, b, g, 5)
	for w, ns := range b.Stats().SyncWaitByShard {
		if ns <= s.SyncWaitByShard[w] {
			t.Fatalf("shard %d sync wait did not accumulate: %d then %d", w, s.SyncWaitByShard[w], ns)
		}
	}
}

// TestShardedMoreShardsThanFunctions: tiny graphs must not panic or
// deadlock when the partition clamps below the worker count.
func TestShardedMoreShardsThanFunctions(t *testing.T) {
	g := graph.New(1)
	g.AddNode(prox.SquaredNorm{C: 1, Dim: 1}, 0)
	g.AddNode(prox.Consensus{Dim: 1}, 0, 1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(2)))
	ref := runIters(t, admm.NewSerial(), cloneInit(t, g), 50)
	b, err := New(8, graph.StrategyGreedyMincut)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := runIters(t, b, g, 50)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("tiny graph diverged at Z[%d]", i)
		}
	}
}

// cloneInit rebuilds the tiny two-node graph with identical init.
func cloneInit(t testing.TB, src *graph.Graph) *graph.Graph {
	t.Helper()
	g := graph.New(1)
	g.AddNode(prox.SquaredNorm{C: 1, Dim: 1}, 0)
	g.AddNode(prox.Consensus{Dim: 1}, 0, 1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(2)))
	return g
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(0, ""); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := New(2, "metis"); err == nil {
		t.Error("accepted unknown strategy")
	}
}

func TestSpecValidationThroughAdmm(t *testing.T) {
	ok := admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4, Partition: "greedy-mincut"}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []admm.ExecutorSpec{
		{Kind: admm.ExecSharded, Shards: -1},
		{Kind: admm.ExecSharded, Partition: "metis"},
		{Kind: admm.ExecSerial, Shards: 2},
		{Kind: admm.ExecParallelFor, Partition: "balanced"},
		{Kind: "barrier"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	if _, err := (admm.ExecutorSpec{Kind: admm.ExecSharded}).NewBackend(nil); err == nil {
		t.Error("sharded NewBackend accepted nil graph")
	}
}

// TestAutoResolvesToShardedWhenLinked: with this package's factory
// registered (the init above), a large sparse graph on a multi-core
// budget resolves to a sharded backend and actually builds. The
// serial fallback for unlinked binaries is covered in internal/admm.
func TestAutoResolvesToShardedWhenLinked(t *testing.T) {
	g := graph.New(1)
	for i := 0; i < admm.AutoShardMinEdges; i++ { // 2x the edge threshold
		g.AddNode(prox.Identity{}, i, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()

	spec := admm.ExecutorSpec{Kind: admm.ExecAuto}.ResolveAuto(g)
	if spec.Kind == admm.ExecAuto {
		t.Fatal("auto spec not resolved")
	}
	// On a single-core runner auto legitimately picks serial; with 2+
	// cores it must pick sharded here.
	if procs := runtime.GOMAXPROCS(0); procs > 1 && spec.Kind != admm.ExecSharded {
		t.Fatalf("kind = %q with %d procs, want sharded", spec.Kind, procs)
	}
	b, err := spec.NewBackend(g)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var nanos [admm.NumPhases]int64
	b.Iterate(g, 2, &nanos)
}
