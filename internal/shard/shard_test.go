package shard

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
	b.RunBlock(g, admm.Block{Iters: iters})
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
		for _, shards := range []int{1, 2, 3, 4, 9} {
			b, err := New(shards)
			if err != nil {
				t.Fatal(err)
			}
			got := runIters(t, b, build(t), 200)
			b.Close()
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("%s/%d shards: diverged from serial at Z[%d]: %g vs %g",
						gname, shards, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestShardedSplitIterateCalls checks determinism across block lengths
// (admm.Run's residual checking splits a run into blocks).
func TestShardedSplitIterateCalls(t *testing.T) {
	ref := runIters(t, admm.NewSerial(), chainGraph(t, 40), 100)
	b, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g := chainGraph(t, 40)
	for _, step := range []int{1, 9, 40, 50} {
		b.RunBlock(g, admm.Block{Iters: step})
	}
	for i := range ref {
		if ref[i] != g.Z[i] {
			t.Fatalf("split blocks diverged at Z[%d]", i)
		}
	}
	if got := b.Stats().Iterations; got != 100 {
		t.Fatalf("stats iterations = %d, want 100", got)
	}
}

// hubGraph is a consensus star — variable 0 shared by one pairwise
// function per leaf, so any partition cuts it — plus a chain over the
// leaves, a squared-norm prox on every variable, and one more variable
// with nothing but its own prox: isolated.
func hubGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const leaves = 24
	g := graph.New(2)
	for v := 1; v <= leaves; v++ {
		g.AddNode(prox.Consensus{Dim: 2}, 0, v)
		if v < leaves {
			g.AddNode(prox.Consensus{Dim: 2}, v, v+1)
		}
	}
	for v := 0; v <= leaves+1; v++ {
		g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, v)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(3)))
	return g
}

// TestShardedCheckedBlockMatchesSerialSplit: a checked block wakes the
// workers once, and each copies the z of its own variables into
// Block.ZPrev between the block's last two iterations. Over two checked
// blocks in a row, ZPrev, X, U and Z must equal serial's split form bit
// for bit, at 2 and 3 shards and every block length, ZPrev's
// NaN-poisoned entries included: one a worker missed stays NaN.
func TestShardedCheckedBlockMatchesSerialSplit(t *testing.T) {
	for _, shards := range []int{2, 3} {
		for _, iters := range []int{1, 2, 10} {
			ref, g := hubGraph(t), hubGraph(t)
			b, err := New(shards)
			if err != nil {
				t.Fatal(err)
			}
			refPrev, zPrev := make([]float64, len(g.Z)), make([]float64, len(g.Z))
			for block := 0; block < 2; block++ {
				for i := range zPrev {
					zPrev[i] = math.NaN()
				}
				admm.NewSerial().RunBlock(ref, admm.Block{Iters: iters, ZPrev: refPrev})
				b.RunBlock(g, admm.Block{Iters: iters, ZPrev: zPrev})
				for name, pair := range map[string][2][]float64{"zPrev": {refPrev, zPrev}, "X": {ref.X, g.X}, "U": {ref.U, g.U}, "Z": {ref.Z, g.Z}} {
					for i, v := range pair[0] {
						if math.Float64bits(v) != math.Float64bits(pair[1][i]) {
							t.Fatalf("%d shards, %d iterations, block %d: %s[%d] = %v, serial %v", shards, iters, block, name, i, pair[1][i], v)
						}
					}
				}
			}
			if st := b.Stats(); st.BoundaryVars == 0 {
				t.Fatalf("%d shards: no boundary variable — the graph does not span the workers", shards)
			}
			b.Close()
		}
	}
}

// TestShardedReuseAndClose is the persistent-worker lifecycle contract
// (ported from the barrier executor this one replaced): a backend serves
// block after block, Close is idempotent, and RunBlock on a closed
// backend panics instead of hanging on workers that are gone.
func TestShardedReuseAndClose(t *testing.T) {
	b, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t, 20)
	b.RunBlock(g, admm.Block{Iters: 3})
	b.RunBlock(g, admm.Block{Iters: 3}) // reuse after first batch
	b.Close()
	b.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on RunBlock after Close")
		}
	}()
	b.RunBlock(g, admm.Block{Iters: 1})
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
		Executor: admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4},
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
// boundary vars under the balanced split, loads roughly even.
func TestShardedStats(t *testing.T) {
	b, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	g := chainGraph(t, 1000)
	runIters(t, b, g, 5)
	s := b.Stats()
	if len(s.Workers) != 4 {
		t.Fatalf("stats %+v", s)
	}
	if s.BoundaryVars == 0 || s.BoundaryVars > 8 {
		t.Fatalf("chain boundary vars = %d, want 1..8", s.BoundaryVars)
	}
	if s.InteriorVars+s.BoundaryVars != g.NumVariables() {
		t.Fatalf("interior %d + boundary %d != %d vars", s.InteriorVars, s.BoundaryVars, g.NumVariables())
	}
	total := 0
	for _, w := range s.Workers {
		total += w.Edges
	}
	if total != g.NumEdges() {
		t.Fatalf("worker edges sum %d != %d edges", total, g.NumEdges())
	}
	if s.Iterations != 5 {
		t.Fatalf("iterations %d", s.Iterations)
	}
	// Every worker times its own loop; the counters accumulate across
	// RunBlock calls and a returned Stats is a snapshot.
	if s.SyncWaitNanos != s.Workers[0].SyncWait || s.BoundaryZNanos != s.Workers[0].BoundaryZ {
		t.Fatalf("sync wait %d, boundary z %d, worker 0 %+v", s.SyncWaitNanos, s.BoundaryZNanos, s.Workers[0])
	}
	for i, w := range s.Workers {
		if w.SyncWait <= 0 || w.PhaseNanos[admm.PhaseX] <= 0 {
			t.Fatalf("worker %d reports no sync wait or x time: %+v", i, w)
		}
	}
	runIters(t, b, g, 5)
	straggles := int64(0)
	for i, w := range b.Stats().Workers {
		if w.SyncWait <= s.Workers[i].SyncWait || w.PhaseNanos[admm.PhaseX] <= s.Workers[i].PhaseNanos[admm.PhaseX] {
			t.Fatalf("worker %d did not accumulate: %+v then %+v", i, s.Workers[i], w)
		}
		straggles += w.Straggles
	}
	if straggles != 2 {
		t.Fatalf("%d straggles over two blocks, want one per block", straggles)
	}
}

// TestStragglerNamed: a function on the last shard sleeps once per
// block, so every block that shard is the straggler — the one the other
// waited for — on the in-process backend and over worker processes
// alike. Its Straggles count every block, the solve's x time is its x
// time (which holds the sleeps), and shard 0's loop spent the sleeps
// waiting at its sync points.
func TestStragglerNamed(t *testing.T) {
	const n, iters, blocks = 48, 5, 3
	const nap = 30 * time.Millisecond
	var sleep atomic.Int64
	// chainGraph's shape, with its last pairwise function sleepy.
	const sleepy = n - 2
	sleepyChain := func() *graph.Graph {
		g := graph.New(2)
		for i := 0; i+1 < n; i++ {
			var op graph.Op = prox.Consensus{Dim: 2}
			if i == sleepy {
				op = sleepyOp{op, &sleep}
			}
			g.AddNode(op, i, i+1)
		}
		for i := range n {
			g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, i)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		g.SetUniformParams(1, 1)
		return g
	}
	builders := map[string]BuilderFunc{"chain": func([]byte) (*graph.Graph, error) { return sleepyChain(), nil }}
	for _, name := range []string{"in-process", "remote"} {
		t.Run(name, func(t *testing.T) {
			g := sleepyChain()
			if p, err := newPlan(g, 2, true); err != nil || p.part.FuncPart[sleepy] != 1 {
				t.Fatalf("the sleepy function is not on the last shard (%v)", err)
			}
			var b admm.Backend
			var err error
			if name == "remote" {
				b, err = NewRemote(context.Background(), chainSpec(startTestWorkers(t, 2, builders)), g)
			} else {
				b, err = New(2)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var x int64
			for range blocks {
				sleep.Store(int64(nap))
				res, err := admm.Run(g, admm.Options{MaxIter: iters, Backend: b})
				if err != nil {
					t.Fatal(err)
				}
				x += res.PhaseNanos[admm.PhaseX]
			}
			st := b.(StatsReporter).Stats()
			w0, w1 := st.Workers[0], st.Workers[1]
			if w1.Straggles != blocks || w0.Straggles != 0 {
				t.Fatalf("straggles %d and %d, want 0 and %d: %+v", w0.Straggles, w1.Straggles, blocks, st.Workers)
			}
			if x < blocks*int64(nap) {
				t.Fatalf("the solve's x time is %v, want at least the %v shard 1 slept", time.Duration(x), blocks*nap)
			}
			// Shard 0 waits from when it reaches a sync point until the
			// sleeper does; only its own compute and the two workers'
			// start skew come off the sleep, so three quarters is a
			// generous floor.
			if w0.SyncWait < blocks*int64(nap)*3/4 || w0.SyncWait <= w1.SyncWait {
				t.Fatalf("shard 0 waited %v and shard 1 %v, want shard 0 to wait through most of the %v slept",
					time.Duration(w0.SyncWait), time.Duration(w1.SyncWait), blocks*nap)
			}
		})
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
	b, err := New(8)
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
	if _, err := New(0); err == nil {
		t.Error("accepted 0 shards")
	}
}

func TestSpecValidationThroughAdmm(t *testing.T) {
	ok := admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 4}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []admm.ExecutorSpec{
		{Kind: admm.ExecSharded, Shards: -1},
		{Kind: admm.ExecSerial, Shards: 2},
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
	b.RunBlock(g, admm.Block{Iters: 2})
}
