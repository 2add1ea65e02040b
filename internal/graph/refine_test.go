package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refineGraphs is the shape zoo the refinement properties run over:
// chain (sparse, geometric order), shuffled chain (sparse, scrambled
// order), random bipartite, and a dense clique-like consensus graph.
func refineGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	shuffled := func(n int, seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		g := New(2)
		for _, i := range rng.Perm(n - 1) {
			g.AddNode(partIdentityOp{}, i, i+1)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	dense := func(n int) *Graph {
		// All-pairs consensus over n variables — packing's shape.
		g := New(3)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddNode(partIdentityOp{}, i, j)
			}
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*Graph{
		"chain":          partChain(t, 300),
		"shuffled-chain": shuffled(400, 5),
		"random":         partRandom(t, 150, 50, 9),
		"dense":          dense(24),
	}
}

// TestCutCostModel pins the degree-weighted cost model on a
// hand-checkable split: a 3-variable star where the middle variable is
// shared. With d=2 and functions {f0(v0,v1), f1(v1,v2)} split across 2
// shards, v1 has deg 2, pins (1,1), lambda 2: cost = d*(2-1+2-1) = 4.
func TestCutCostModel(t *testing.T) {
	g := New(2)
	g.AddNode(partIdentityOp{}, 0, 1)
	g.AddNode(partIdentityOp{}, 1, 2)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := Partition{Parts: 2, FuncPart: []int{0, 1}}
	p.analyze(g)
	if got := CutCost(g, &p); got != 4 {
		t.Fatalf("CutCost = %g, want 4", got)
	}
	// Same functions on one shard: interior everywhere, zero cost.
	p1 := Partition{Parts: 2, FuncPart: []int{0, 0}}
	p1.analyze(g)
	if got := CutCost(g, &p1); got != 0 {
		t.Fatalf("uncut CutCost = %g, want 0", got)
	}
	// Single-part partitions are free by definition.
	single, err := NewPartition(g, 1, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if got := CutCost(g, &single); got != 0 {
		t.Fatalf("1-part CutCost = %g, want 0", got)
	}
}

// refineSeeds are the partitions the refinement properties start from:
// the balanced split, and a round-robin scatter that puts almost every
// variable on the cut so the pass has moves to make.
func refineSeeds(t *testing.T, g *Graph, parts int) map[string]Partition {
	t.Helper()
	bal, err := NewPartition(g, parts, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	rr := Partition{Parts: bal.Parts, FuncPart: make([]int, g.NumFunctions())}
	for a := range rr.FuncPart {
		rr.FuncPart[a] = a % rr.Parts
	}
	rr.analyze(g)
	return map[string]Partition{"balanced": bal, "round-robin": rr}
}

// TestRefineProperties is the refinement property suite: over every
// shape x seed partition x part count, Refine must (1) never increase
// the degree-weighted cut cost, (2) keep the partition Validate-clean,
// (3) respect the balance bound max(ceil(1.1*|E|/parts), initial max
// load), (4) never empty a shard that had work, and (5) report stats
// consistent with CutCost.
func TestRefineProperties(t *testing.T) {
	for gname, g := range refineGraphs(t) {
		for _, parts := range []int{2, 3, 4, 7} {
			for seed, p := range refineSeeds(t, g, parts) {
				before := CutCost(g, &p)
				var maxBefore int
				for _, l := range p.PartLoads(g) {
					if l > maxBefore {
						maxBefore = l
					}
				}
				bound := int(math.Ceil(1.1 * float64(g.NumEdges()) / float64(p.Parts)))
				if maxBefore > bound {
					bound = maxBefore
				}

				st := p.Refine(g)
				after := CutCost(g, &p)
				if after > before {
					t.Fatalf("%s/%s/%d: refine increased cut %g -> %g", gname, seed, parts, before, after)
				}
				if st.CostBefore != before || st.CostAfter != after {
					t.Fatalf("%s/%s/%d: stats %+v disagree with CutCost %g -> %g", gname, seed, parts, st, before, after)
				}
				if err := p.Validate(g); err != nil {
					t.Fatalf("%s/%s/%d: refined partition invalid: %v", gname, seed, parts, err)
				}
				for s, l := range p.PartLoads(g) {
					if l > bound {
						t.Fatalf("%s/%s/%d: shard %d load %d exceeds balance bound %d", gname, seed, parts, s, l, bound)
					}
				}
				counts := make([]int, p.Parts)
				for _, s := range p.FuncPart {
					counts[s]++
				}
				for s, c := range counts {
					if c == 0 && p.Parts <= g.NumFunctions() {
						t.Fatalf("%s/%s/%d: refine emptied shard %d", gname, seed, parts, s)
					}
				}
				if seed == "round-robin" && parts == 2 && after >= before {
					t.Fatalf("%s/%d: refine found no move on a round-robin scatter (cut %g)", gname, parts, before)
				}
			}
		}
	}
}

// TestRefineDeterministic: the gain buckets break ties
// deterministically, so two refinements of the same partition agree
// placement-for-placement.
func TestRefineDeterministic(t *testing.T) {
	g := refineGraphs(t)["dense"]
	a, b := refineSeeds(t, g, 4)["round-robin"], refineSeeds(t, g, 4)["round-robin"]
	a.Refine(g)
	b.Refine(g)
	for i := range a.FuncPart {
		if a.FuncPart[i] != b.FuncPart[i] {
			t.Fatalf("nondeterministic refinement: FuncPart[%d] = %d vs %d", i, a.FuncPart[i], b.FuncPart[i])
		}
	}
}

// TestRefineSinglePartNoop: one shard has nothing to refine.
func TestRefineSinglePartNoop(t *testing.T) {
	g := partChain(t, 50)
	p, err := NewPartition(g, 1, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Refine(g)
	if st.Moves != 0 || st.CostBefore != 0 || st.CostAfter != 0 {
		t.Fatalf("1-part refine did something: %+v", st)
	}
}

// TestValidateRejectsEmptyShards: a hand-built partition with more
// parts than function nodes must be rejected with a clear error, not
// silently carried as empty shards (NewPartition clamps; Validate
// guards everything else).
func TestValidateRejectsEmptyShards(t *testing.T) {
	g := partChain(t, 3) // 5 functions
	p := Partition{Parts: 9, FuncPart: make([]int, g.NumFunctions())}
	p.analyze(g)
	err := p.Validate(g)
	if err == nil {
		t.Fatal("Validate accepted 9 parts over 5 functions")
	}
	want := "9 parts exceed the 5 function nodes"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not explain the empty-shard invariant (want %q)", got, want)
	}
}
