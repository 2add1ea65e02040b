package graph

import (
	"math/rand"
	"testing"
)

type partIdentityOp struct{}

func (partIdentityOp) Eval(x, n, rho []float64, d int) { copy(x, n) }
func (partIdentityOp) Work(deg, d int) Work {
	return Work{MemWords: float64(2 * deg * d)}
}

// partChain builds a consensus chain: binary nodes linking variable t to
// t+1 plus a unary anchor per variable — the MPC-like shape whose
// locality the balanced strategy should exploit.
func partChain(t testing.TB, n int) *Graph {
	t.Helper()
	g := New(2)
	for i := 0; i+1 < n; i++ {
		g.AddNode(partIdentityOp{}, i, i+1)
	}
	for i := 0; i < n; i++ {
		g.AddNode(partIdentityOp{}, i)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// partRandom builds a random bipartite graph over nV variables.
func partRandom(t testing.TB, nF, nV int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(1)
	for a := 0; a < nF; a++ {
		deg := 1 + rng.Intn(3)
		seen := map[int]bool{}
		vars := []int{}
		for len(vars) < deg {
			v := rng.Intn(nV)
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		g.AddNode(partIdentityOp{}, vars...)
	}
	// Anchor every variable so Finalize cannot fail on isolated ones.
	for v := 0; v < nV; v++ {
		g.AddNode(partIdentityOp{}, v)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]PartitionStrategy{
		"":                StrategyBalanced,
		"block":           StrategyBlock,
		"balanced":        StrategyBalanced,
		" Greedy-Mincut ": StrategyGreedyMincut,
		"Mincut+FM":       StrategyMincutFM,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("metis"); err == nil {
		t.Error("ParseStrategy accepted unknown strategy")
	}
}

func TestPartitionInvariantsAllStrategies(t *testing.T) {
	graphs := map[string]*Graph{
		"chain":  partChain(t, 200),
		"random": partRandom(t, 120, 40, 7),
	}
	for gname, g := range graphs {
		for _, strat := range []PartitionStrategy{StrategyBlock, StrategyBalanced, StrategyGreedyMincut} {
			for _, parts := range []int{1, 2, 3, 4, 7} {
				p, err := NewPartition(g, parts, strat)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", gname, strat, parts, err)
				}
				if err := p.Validate(g); err != nil {
					t.Fatalf("%s/%s/%d: %v", gname, strat, parts, err)
				}
				if parts == 1 && (len(p.BoundaryVars) != 0 || p.BoundaryEdges != 0) {
					t.Fatalf("%s/%s: single part has boundary %+v", gname, strat, p)
				}
			}
		}
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	g := partChain(t, 10)
	if _, err := NewPartition(g, 0, StrategyBalanced); err == nil {
		t.Error("accepted parts = 0")
	}
	if _, err := NewPartition(g, 2, "metis"); err == nil {
		t.Error("accepted unknown strategy")
	}
	unfinalized := New(1)
	unfinalized.AddNode(partIdentityOp{}, 0)
	if _, err := NewPartition(unfinalized, 2, StrategyBalanced); err == nil {
		t.Error("accepted unfinalized graph")
	}
}

func TestPartitionClampsParts(t *testing.T) {
	g := partChain(t, 3) // 5 functions
	p, err := NewPartition(g, 100, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if p.Parts != g.NumFunctions() {
		t.Fatalf("parts = %d, want clamp to %d", p.Parts, g.NumFunctions())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedBeatsBlockOnChain pins the locality property the sharded
// executor relies on: on a chain, the balanced strategy cuts at only
// parts-1 places while the block strategy strands anchors everywhere.
func TestBalancedBeatsBlockOnChain(t *testing.T) {
	g := partChain(t, 5000)
	bal, err := NewPartition(g, 4, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	// A cut between two variables' functions costs one boundary
	// variable, a cut between one variable's link and its unary node two.
	if len(bal.BoundaryVars) > 6 {
		t.Fatalf("balanced chain boundary = %d vars, want at most two per cut (6)", len(bal.BoundaryVars))
	}
	blk, err := NewPartition(g, 4, StrategyBlock)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.BoundaryVars) <= 10*len(bal.BoundaryVars) {
		t.Fatalf("block boundary %d not clearly worse than balanced %d",
			len(blk.BoundaryVars), len(bal.BoundaryVars))
	}
}

// partCostOp is an identity operator with a declared x-update cost, so
// tests can make functions of equal degree unequal in work.
type partCostOp struct{ flops float64 }

func (partCostOp) Eval(x, n, rho []float64, d int) { copy(x, n) }
func (o partCostOp) Work(deg, d int) Work          { return Work{Flops: o.flops} }

// TestBalancedAnchorsOnPrivateVariables: when every function shares one
// hub variable and also has a variable of its own, the hub must not
// decide the order — the private variables do. They are numbered
// against creation order here, so an anchor on the hub (creation order)
// and an anchor on the private variable (reverse creation order) give
// opposite shard sequences.
func TestBalancedAnchorsOnPrivateVariables(t *testing.T) {
	const n = 40
	g := New(1)
	for a := 0; a < n; a++ {
		g.AddNode(partIdentityOp{}, 0, n-a)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g, 4, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.FuncPart[0] != 3 || p.FuncPart[n-1] != 0 {
		t.Fatalf("first/last function on shards %d/%d, want 3/0 (private-variable order)", p.FuncPart[0], p.FuncPart[n-1])
	}
	for a := 1; a < n; a++ {
		if p.FuncPart[a] > p.FuncPart[a-1] {
			t.Fatalf("shards not descending in creation order at function %d: %v", a, p.FuncPart)
		}
	}
	if len(p.BoundaryVars) != 1 || p.BoundaryVars[0] != 0 {
		t.Fatalf("boundary variables %v, want the hub alone", p.BoundaryVars)
	}
}

// TestBalancedStarSplitsInCreationOrder: a star whose functions have
// nothing but the hub anchors on it, splits in creation order at equal
// work, and leaves the hub as the one owner-combined boundary variable.
func TestBalancedStarSplitsInCreationOrder(t *testing.T) {
	g := New(3)
	for a := 0; a < 33; a++ {
		g.AddNode(partIdentityOp{}, 0)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 3, 4} {
		p, err := NewPartition(g, parts, StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatal(err)
		}
		for a := 1; a < 33; a++ {
			if p.FuncPart[a] < p.FuncPart[a-1] {
				t.Fatalf("parts=%d: not in creation order: %v", parts, p.FuncPart)
			}
		}
		loads := p.PartLoads(g)
		for s, l := range loads {
			if l < 33/parts || l > 33/parts+1 {
				t.Fatalf("parts=%d: shard %d holds %d of 33 functions: %v", parts, s, l, loads)
			}
		}
		if len(p.BoundaryVars) != 1 || loads[p.VarPart[0]] < 33/parts {
			t.Fatalf("parts=%d: boundary %v owned by shard %d with loads %v", parts, p.BoundaryVars, p.VarPart[0], loads)
		}
	}
}

// TestBalancedCutsAtEqualWork: equal degrees, unequal x-update cost —
// the cut follows the cost, not the edge count.
func TestBalancedCutsAtEqualWork(t *testing.T) {
	g := New(1)
	for a := 0; a < 100; a++ {
		flops := 100.0
		if a < 20 {
			flops = 1500 // 20 heavy functions outweigh the 80 light ones
		}
		g.AddNode(partCostOp{flops: flops}, a)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g, 2, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if wi := p.WorkImbalance(g); wi > 1.05 {
		t.Fatalf("work imbalance %.3f, want an even split of the modelled work", wi)
	}
	if loads := p.PartLoads(g); loads[0] >= 20 {
		t.Fatalf("shard 0 holds %d functions, want fewer than the 20 heavy ones: %v", loads[0], loads)
	}
}

// TestBalancedLeavesNoShardEmpty: one function that outweighs all the
// others together cannot starve a shard — parts <= |F| always yields
// parts non-empty shards.
func TestBalancedLeavesNoShardEmpty(t *testing.T) {
	for _, heavy := range []int{0, 3, 7} {
		g := New(1)
		for a := 0; a < 8; a++ {
			flops := 1.0
			if a == heavy {
				flops = 1e9
			}
			g.AddNode(partCostOp{flops: flops}, a)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		for parts := 1; parts <= 8; parts++ {
			p, err := NewPartition(g, parts, StrategyBalanced)
			if err != nil {
				t.Fatal(err)
			}
			for s, l := range p.PartLoads(g) {
				if l == 0 {
					t.Fatalf("heavy=%d parts=%d: shard %d empty: %v", heavy, parts, s, p.FuncPart)
				}
			}
		}
	}
}

// TestGreedyMincutBeatsBlockOnShuffledChain: when construction order is
// scrambled, the contiguous strategies lose locality but the greedy
// placement recovers most of it.
func TestGreedyMincutBeatsBlockOnShuffledChain(t *testing.T) {
	n := 2000
	rng := rand.New(rand.NewSource(3))
	order := rng.Perm(n - 1)
	g := New(1)
	for _, i := range order {
		g.AddNode(partIdentityOp{}, i, i+1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	greedy, err := NewPartition(g, 4, StrategyGreedyMincut)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(g); err != nil {
		t.Fatal(err)
	}
	blk, err := NewPartition(g, 4, StrategyBlock)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.BoundaryEdges >= blk.BoundaryEdges {
		t.Fatalf("greedy-mincut boundary edges %d not below block %d on shuffled chain",
			greedy.BoundaryEdges, blk.BoundaryEdges)
	}
	// Load balance must stay within the strategy's 10% slack plus slop.
	loads := greedy.PartLoads(g)
	mean := float64(g.NumEdges()) / float64(greedy.Parts)
	for s, l := range loads {
		if float64(l) > 1.35*mean {
			t.Fatalf("greedy-mincut shard %d load %d vs mean %.0f", s, l, mean)
		}
	}
}

func TestEdgeFunc(t *testing.T) {
	g := partRandom(t, 60, 20, 11)
	for a := 0; a < g.NumFunctions(); a++ {
		lo, hi := g.FuncEdges(a)
		for e := lo; e < hi; e++ {
			if got := g.EdgeFunc(e); got != a {
				t.Fatalf("EdgeFunc(%d) = %d, want %d", e, got, a)
			}
		}
	}
}
