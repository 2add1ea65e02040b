// Partition-quality acceptance tests: the cross-package properties the
// FM refinement pass was built for, pinned on the real workload
// builders (internal/graph's own tests cover synthetic shapes). See
// docs/partitioning.md for the cost model and strategy catalog.
package repro_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// qualityWorkloads builds each domain at bench-comparable scale.
func qualityWorkloads(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	pk, err := packing.FromSpec(packing.Spec{N: 16})
	if err != nil {
		t.Fatal(err)
	}
	pk.InitRandom(rand.New(rand.NewSource(1)))
	sv, err := svm.FromSpec(svm.Spec{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sv.Graph.InitZero()
	// 32 row blocks and the L1 node on one hub variable: a 33-function
	// consensus star.
	la, err := lasso.FromSpec(lasso.Spec{M: 256, P: 16, Blocks: 32, Lambda: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	la.Graph.InitZero()
	ch, err := mpc.FromSpec(mpc.Spec{K: 300})
	if err != nil {
		t.Fatal(err)
	}
	ch.Graph.InitZero()
	return map[string]*graph.Graph{
		"packing": pk.Graph,
		"svm":     sv.Graph,
		"lasso":   la.Graph,
		"mpc":     ch.Graph,
	}
}

// TestMincutFMReducesPackingCut is the headline acceptance property: on
// packing's dense all-pairs collision graph, the FM pass strictly
// reduces the degree-weighted cut cost below the greedy streaming
// placement it seeds from, without giving up its load balance.
func TestMincutFMReducesPackingCut(t *testing.T) {
	g := qualityWorkloads(t)["packing"]
	greedy, err := graph.NewPartition(g, 4, graph.StrategyGreedyMincut)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := graph.NewPartition(g, 4, graph.StrategyMincutFM)
	if err != nil {
		t.Fatal(err)
	}
	gc, fc := graph.CutCost(g, &greedy), graph.CutCost(g, &fm)
	if fc >= gc {
		t.Fatalf("packing: mincut+fm cut %g not strictly below greedy-mincut %g", fc, gc)
	}
	if gi, fi := greedy.LoadImbalance(g), fm.LoadImbalance(g); fi > gi+0.10 {
		t.Fatalf("packing: refinement bought cut with imbalance: %.3f -> %.3f", gi, fi)
	}
	if err := fm.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestRefineNeverHurtsOnWorkloads: across every domain builder and
// every base strategy, the refinement pass never increases the weighted
// cut and keeps the partition valid — the executor-facing version of
// the graph package's synthetic property tests.
func TestRefineNeverHurtsOnWorkloads(t *testing.T) {
	for wname, g := range qualityWorkloads(t) {
		for _, strat := range []graph.PartitionStrategy{
			graph.StrategyBlock, graph.StrategyBalanced, graph.StrategyGreedyMincut,
		} {
			for _, parts := range []int{2, 4} {
				p, err := graph.NewPartition(g, parts, strat)
				if err != nil {
					t.Fatal(err)
				}
				st := p.Refine(g)
				if st.CostAfter > st.CostBefore {
					t.Errorf("%s/%s/%d: refine increased cut %g -> %g", wname, strat, parts, st.CostBefore, st.CostAfter)
				}
				if err := p.Validate(g); err != nil {
					t.Errorf("%s/%s/%d: %v", wname, strat, parts, err)
				}
			}
		}
	}
}

// variableAxisSplit is the split the balanced strategy made before it
// was work-weighted: variables cut into contiguous ranges of equal
// degree mass, each function placed with its first variable. Kept here
// as the yardstick for the cut the work-weighted split pays.
func variableAxisSplit(g *graph.Graph, parts int) graph.Partition {
	varPart := make([]int, g.NumVariables())
	acc, total := 0, g.NumEdges()
	for v := range varPart {
		varPart[v] = acc * parts / total
		acc += g.VarDegree(v)
	}
	funcPart := make([]int, g.NumFunctions())
	for a := range funcPart {
		lo, _ := g.FuncEdges(a)
		funcPart[a] = varPart[g.EdgeVar(lo)]
	}
	return graph.Partition{Parts: parts, FuncPart: funcPart}
}

// TestBalancedPartitionOnWorkloads pins what the default partition
// promises on the four builders at 2, 3 and 4 shards: every shard has
// work, the modelled work is within 10 % of even, and the geometry each
// builder numbers its variables by survives the cut.
func TestBalancedPartitionOnWorkloads(t *testing.T) {
	for wname, g := range qualityWorkloads(t) {
		for _, parts := range []int{2, 3, 4} {
			p, err := graph.NewPartition(g, parts, graph.StrategyBalanced)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(g); err != nil {
				t.Errorf("%s/%d: %v", wname, parts, err)
			}
			for s, load := range p.PartLoads(g) {
				if load == 0 {
					t.Errorf("%s/%d: shard %d is empty", wname, parts, s)
				}
			}
			if wi := p.WorkImbalance(g); wi > 1.10 {
				t.Errorf("%s/%d: work imbalance %.3f > 1.10", wname, parts, wi)
			}
			again, err := graph.NewPartition(g, parts, graph.StrategyBalanced)
			if err != nil {
				t.Fatal(err)
			}
			for a, s := range p.FuncPart {
				if again.FuncPart[a] != s {
					t.Fatalf("%s/%d: function %d on shard %d, then %d", wname, parts, a, s, again.FuncPart[a])
				}
			}
			switch wname {
			case "mpc":
				// A chain is cut at parts-1 time steps and nowhere else.
				if got := len(p.BoundaryVars); got != parts-1 {
					t.Errorf("mpc/%d: %d boundary variables, want %d", parts, got, parts-1)
				}
			case "lasso":
				// A consensus star splits in creation order; its hub is
				// the one boundary variable, combined by a shard that
				// holds a full share of its edges.
				if len(p.BoundaryVars) != 1 {
					t.Fatalf("lasso/%d: boundary variables %v, want the hub alone", parts, p.BoundaryVars)
				}
				hub := p.BoundaryVars[0]
				owned := 0
				for _, e := range g.VarEdges(hub) {
					if p.FuncPart[g.EdgeFunc(e)] == p.VarPart[hub] {
						owned++
					}
				}
				if min := g.VarDegree(hub) / parts; owned < min {
					t.Errorf("lasso/%d: hub owner holds %d of %d edges, want >= %d", parts, owned, g.VarDegree(hub), min)
				}
			case "svm":
				old := variableAxisSplit(g, parts)
				if got, was := graph.CutCost(g, &p), graph.CutCost(g, &old); got > 2*was {
					t.Errorf("svm/%d: cut cost %g, more than twice the variable-axis split's %g", parts, got, was)
				}
			}
		}
	}
}

// TestGatherOwnersOnWorkloads pins the owner rule of the shared-memory
// plan (graph.Partition.GatherOwners). On the benchmark's packing shape
// at 2 shards the z-gather load — summed degree of the variables a
// shard combines, interior included — is within 10 % of even where the
// majority rule leaves one shard 1.4x the mean, and the boundary list
// is handed out in at most one run per shard. A chain's or a star's
// single cut point has nothing to balance and keeps its majority owner.
func TestGatherOwnersOnWorkloads(t *testing.T) {
	imbalance := func(loads []int) float64 {
		max, total := 0, 0
		for _, l := range loads {
			total += l
			if l > max {
				max = l
			}
		}
		return float64(max) * float64(len(loads)) / float64(total)
	}
	pk, err := packing.FromSpec(packing.Spec{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	p, err := graph.NewPartition(pk.Graph, shards, graph.StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	owner := p.GatherOwners(pk.Graph)
	if was := imbalance(p.GatherLoads(pk.Graph, p.VarPart)); was < 1.3 {
		t.Errorf("packing: majority owners already at z-gather imbalance %.3f — nothing left to pin", was)
	}
	if got := imbalance(p.GatherLoads(pk.Graph, owner)); got > 1.10 {
		t.Errorf("packing: z-gather imbalance %.3f > 1.10 (loads %v)", got, p.GatherLoads(pk.Graph, owner))
	}
	runs, prev := 0, -1
	for _, v := range p.BoundaryVars {
		if owner[v] != prev {
			runs, prev = runs+1, owner[v]
		}
	}
	if runs > shards {
		t.Errorf("packing: %d owner runs over the boundary list, want <= %d", runs, shards)
	}

	for _, wname := range []string{"lasso", "mpc"} {
		g := qualityWorkloads(t)[wname]
		p, err := graph.NewPartition(g, shards, graph.StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.BoundaryVars) != 1 {
			t.Fatalf("%s: boundary variables %v, want one", wname, p.BoundaryVars)
		}
		for v, o := range p.GatherOwners(g) {
			if o != p.VarPart[v] {
				t.Errorf("%s: variable %d combined by shard %d, majority owner is %d", wname, v, o, p.VarPart[v])
			}
		}
	}
}

func mpcChain(tb testing.TB, k int) *graph.Graph {
	tb.Helper()
	p, err := mpc.FromSpec(mpc.Spec{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	return p.Graph
}

// BenchmarkPartitionBalanced times the default 2-way partition of the
// k=16000 MPC chain (32 001 functions, 48 001 edges) — what every
// sharded solve of that graph pays before its first iteration.
func BenchmarkPartitionBalanced(b *testing.B) {
	g := mpcChain(b, 16000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.NewPartition(g, 2, graph.StrategyBalanced); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPartitionBalancedIsLinear: partitioning must stay O(|F| + |E|) —
// it runs inside every sharded solve. The allocation count may not
// depend on the graph's size (no per-function or per-bucket objects),
// and eight times the chain may not cost much more than eight times the
// time: the bound of 3x per element leaves room for cache effects and
// a noisy machine while a quadratic step would show as 8x.
func TestPartitionBalancedIsLinear(t *testing.T) {
	small, large := mpcChain(t, 2000), mpcChain(t, 16000)
	partition := func(g *graph.Graph) func() {
		return func() {
			if _, err := graph.NewPartition(g, 2, graph.StrategyBalanced); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s, l := testing.AllocsPerRun(3, partition(small)), testing.AllocsPerRun(3, partition(large)); s != l {
		t.Errorf("allocations grow with the graph: %v at k=2000, %v at k=16000", s, l)
	}
	best := func(run func()) time.Duration {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			run()
			if dt := time.Since(t0); dt < min {
				min = dt
			}
		}
		return min
	}
	ts, tl := best(partition(small)), best(partition(large))
	if perElem := float64(tl) / 8 / float64(ts); perElem > 3 {
		t.Errorf("k=16000 takes %v, k=2000 %v: %.1fx per element, want about 1x (linear)", tl, ts, perElem)
	}
}
