package admm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/prox"
)

// autoChainGraph builds a sparse chain with the given number of
// two-variable function nodes (2*funcs edges, mean variable degree ~2).
func autoChainGraph(t *testing.T, funcs int) *graph.Graph {
	t.Helper()
	g := graph.New(1)
	for i := 0; i < funcs; i++ {
		g.AddNode(prox.Identity{}, i, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

// autoDenseGraph builds a consensus star (the lasso/svm shape): every
// function touches the single shared variable 0 plus a private one, so
// variable 0 is boundary under any multi-shard split and roughly
// (parts-1)/parts of its edges — 3/8 of all edge state at 4 shards —
// must cross shards every iteration. No partition can fix that.
func autoDenseGraph(t *testing.T, funcs int) *graph.Graph {
	t.Helper()
	g := graph.New(1)
	for i := 0; i < funcs; i++ {
		g.AddNode(prox.Identity{}, 0, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

// TestResolveAutoSingleCore: with one usable core every graph resolves
// to serial — parallel executors only add synchronization.
func TestResolveAutoSingleCore(t *testing.T) {
	g := autoChainGraph(t, AutoShardMinEdges) // 2x the edge threshold
	got := ExecutorSpec{Kind: ExecAuto}.resolveAuto(g, 1, true)
	if got.Kind != ExecSerial {
		t.Fatalf("kind = %q, want serial", got.Kind)
	}
	if !got.FusedEnabled() {
		t.Fatal("auto must keep fused on by default")
	}
}

// TestResolveAutoSmallGraph: below the edge threshold the barrier cost
// of a sharded solve dominates, so small graphs stay serial even with
// plenty of cores.
func TestResolveAutoSmallGraph(t *testing.T) {
	g := autoChainGraph(t, 50) // 100 edges
	got := ExecutorSpec{Kind: ExecAuto}.resolveAuto(g, 8, true)
	if got.Kind != ExecSerial {
		t.Fatalf("kind = %q, want serial", got.Kind)
	}
}

// TestResolveAutoDenseGraph: when the balanced partition's predicted
// cut cost exceeds the serial threshold (the packing cliff:
// nearly every variable is boundary), sharding is off the table and the
// graph stays serial — auto never hands a graph to fork-join loops,
// which measured no faster than serial on every such graph.
func TestResolveAutoDenseGraph(t *testing.T) {
	g := autoDenseGraph(t, AutoShardMinEdges)
	st := g.Stats()
	if st.Edges < AutoShardMinEdges {
		t.Fatalf("test graph below the size threshold: %+v", st)
	}
	if cut, ok := ShardedCutCost(g, AutoMaxShards); !ok || cut <= AutoMaxCutShare*float64(st.Edges*st.D) {
		t.Fatalf("test graph does not exercise the cut-share branch: cut %v, ok %v", cut, ok)
	}
	got := ExecutorSpec{Kind: ExecAuto}.resolveAuto(g, 8, true)
	if !reflect.DeepEqual(got, ExecutorSpec{Kind: ExecSerial}) {
		t.Fatalf("resolved %+v, want plain serial", got)
	}
}

// autoSmallDenseGraph builds a dense-but-small graph: a clique-like
// block where every function touches a window of shared variables, so
// the mean variable degree is high while the edge count stays below
// the shard threshold.
func autoSmallDenseGraph(t *testing.T, funcs, span int) *graph.Graph {
	t.Helper()
	g := graph.New(1)
	vars := funcs/4 + span
	for i := 0; i < funcs; i++ {
		base := i % (vars - span)
		nodes := make([]int, span)
		for k := range nodes {
			nodes[k] = base + k
		}
		g.AddNode(prox.Identity{}, nodes...)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

// TestResolveAutoSmallDense: below the shard threshold density does not
// matter — the dense block that once resolved to parallel-for and an
// equally sized sparse chain both stay serial.
func TestResolveAutoSmallDense(t *testing.T) {
	dense := autoSmallDenseGraph(t, 800, 6) // 4800 edges, mean var degree ~> 4
	sparse := autoChainGraph(t, AutoShardMinEdges/4)
	for name, g := range map[string]*graph.Graph{"dense": dense, "sparse": sparse} {
		if st := g.Stats(); st.Edges < 2048 || st.Edges >= AutoShardMinEdges {
			t.Fatalf("%s graph outside the small window: %+v", name, st)
		}
		if got := (ExecutorSpec{Kind: ExecAuto}).resolveAuto(g, 6, true); got.Kind != ExecSerial {
			t.Fatalf("small %s graph resolved to %q, want serial", name, got.Kind)
		}
	}
	if st := dense.Stats(); st.MeanVarDegree < 4 {
		t.Fatalf("dense graph not dense: mean var degree %.1f", st.MeanVarDegree)
	}
}

// TestResolveAutoLargeSparse: big and sparse resolves to the sharded
// executor, capped shard count, fused on.
func TestResolveAutoLargeSparse(t *testing.T) {
	g := autoChainGraph(t, AutoShardMinEdges) // 2x the edge threshold
	got := ExecutorSpec{Kind: ExecAuto}.resolveAuto(g, 8, true)
	if got.Kind != ExecSharded {
		t.Fatalf("kind = %q, want sharded", got.Kind)
	}
	if got.Shards != AutoMaxShards {
		t.Fatalf("shards = %d, want cap %d", got.Shards, AutoMaxShards)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("resolved spec invalid: %v", err)
	}
	if !got.FusedEnabled() {
		t.Fatal("fused must stay on")
	}
	// Fewer cores than the cap: shard count follows the cores.
	if got := (ExecutorSpec{Kind: ExecAuto}).resolveAuto(g, 2, true); got.Shards != 2 {
		t.Fatalf("shards = %d, want 2 on 2 cores", got.Shards)
	}
}

// TestResolveAutoFusedOptOut: auto has no opt-out of the fused schedule.
// fused=false on an auto spec is refused up front, and resolution never
// carries the field into the concrete spec — whose kind may be one that
// Validate would reject it on.
func TestResolveAutoFusedOptOut(t *testing.T) {
	off := false
	g := autoChainGraph(t, AutoShardMinEdges)
	spec := ExecutorSpec{Kind: ExecAuto, Fused: &off}
	if err := spec.Validate(); err == nil {
		t.Fatal("auto with fused=false validated")
	}
	if _, err := spec.NewBackend(g); err == nil {
		t.Fatal("auto with fused=false built a backend")
	}
	for _, procs := range []int{1, 8} {
		if got := spec.resolveAuto(g, procs, true); got.Fused != nil {
			t.Fatalf("procs=%d: resolved spec %+v inherited fused", procs, got)
		}
	}
}

// TestResolveAutoUnlinkedSharded: a binary that never imported
// internal/shard must degrade on the large-sparse branch rather than
// resolve to an executor it cannot build. This package's tests run
// without the shard factory registered, so the exported ResolveAuto
// exercises the real fallback.
func TestResolveAutoUnlinkedSharded(t *testing.T) {
	g := autoChainGraph(t, AutoShardMinEdges)
	if got := (ExecutorSpec{Kind: ExecAuto}).resolveAuto(g, 8, false); got.Kind != ExecSerial {
		t.Fatalf("kind = %q, want the serial fallback without the shard factory", got.Kind)
	}
	got := ExecutorSpec{Kind: ExecAuto}.ResolveAuto(g)
	if got.Kind != ExecSerial {
		t.Fatalf("ResolveAuto picked %q with no shard factory registered", got.Kind)
	}
	b, err := got.NewBackend(g)
	if err != nil {
		t.Fatalf("resolved spec must always build: %v", err)
	}
	b.Close()
}

// TestResolveAutoPassThrough: non-auto specs are returned unchanged.
func TestResolveAutoPassThrough(t *testing.T) {
	g := autoChainGraph(t, 10)
	in := ExecutorSpec{Kind: ExecParallelFor, Workers: 7}
	if got := in.resolveAuto(g, 8, true); !reflect.DeepEqual(got, in) {
		t.Fatalf("non-auto spec mutated: %+v", got)
	}
}

// TestAutoNewBackend: the spec path builds a working backend and
// requires a graph.
func TestAutoNewBackend(t *testing.T) {
	g := autoChainGraph(t, 50)
	b, err := ExecutorSpec{Kind: ExecAuto}.NewBackend(g)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !strings.Contains(b.Name(), "fused") {
		t.Fatalf("auto backend %q is not fused", b.Name())
	}
	var nanos [NumPhases]int64
	b.Iterate(g, 3, &nanos)

	if _, err := (ExecutorSpec{Kind: ExecAuto}).NewBackend(nil); err == nil {
		t.Fatal("auto without a graph accepted")
	}
}

// TestParseExecutorAuto: the CLI/serve name resolves.
func TestParseExecutorAuto(t *testing.T) {
	s, err := ParseExecutor("auto", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != ExecAuto {
		t.Fatalf("kind = %q", s.Kind)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
