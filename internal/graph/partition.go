package graph

import (
	"fmt"
	"slices"
	"strings"
)

// PartitionStrategy names a function-node partitioning heuristic. The
// same strategies drive both the multi-device cost simulator
// (internal/gpusim.MultiDevice) and the real sharded executor
// (internal/shard): they were extracted here so the simulator's
// predictions and the executor's measurements always describe the same
// split.
type PartitionStrategy string

const (
	// StrategyBlock splits function nodes into contiguous ranges with
	// balanced edge counts — the naive "shard by construction order"
	// split. Builders group functions by kind (all costs, then all
	// dynamics, ...), so this strands related functions on different
	// shards; it is the baseline the locality-aware strategies are
	// compared against.
	StrategyBlock PartitionStrategy = "block"
	// StrategyBalanced lists the functions by anchor — each function's
	// least-degree variable — and cuts the list at equal modelled work
	// (funcCost). Builders number variables along the problem's natural
	// geometry (time steps in MPC, point index in SVM, circle index in
	// packing), so this keeps neighborhoods together: a K-step MPC chain
	// crosses shards at only parts-1 time steps. A hub variable shared by
	// every function never anchors one that has another variable; a pure
	// star splits in creation order and the hub becomes one boundary
	// variable.
	StrategyBalanced PartitionStrategy = "balanced"
	// StrategyGreedyMincut streams function nodes through a linear
	// deterministic greedy placement: each function goes to the shard
	// already holding the most edges incident to its variables, scaled
	// by remaining shard capacity so no shard hoards everything. It
	// beats the contiguous splits on graphs whose construction order
	// does not follow the geometry.
	StrategyGreedyMincut PartitionStrategy = "greedy-mincut"
	// StrategyMincutFM is StrategyGreedyMincut followed by a
	// Fiduccia–Mattheyses refinement pass (Partition.Refine): boundary
	// function nodes are swept through a gain-bucket structure and
	// greedily moved across shards under a balance constraint,
	// minimizing the degree-weighted cut cost (CutCost). The strongest
	// strategy on dense graphs, at a one-time O(passes * boundary)
	// partitioning cost. See docs/partitioning.md.
	StrategyMincutFM PartitionStrategy = "mincut+fm"
)

// ParseStrategy resolves a user-facing strategy name; the empty string
// selects StrategyBalanced (the locality-aware default).
func ParseStrategy(name string) (PartitionStrategy, error) {
	switch PartitionStrategy(strings.ToLower(strings.TrimSpace(name))) {
	case "":
		return StrategyBalanced, nil
	case StrategyBlock:
		return StrategyBlock, nil
	case StrategyBalanced:
		return StrategyBalanced, nil
	case StrategyGreedyMincut:
		return StrategyGreedyMincut, nil
	case StrategyMincutFM:
		return StrategyMincutFM, nil
	}
	return "", fmt.Errorf("graph: unknown partition strategy %q (want %s | %s | %s | %s)",
		name, StrategyBlock, StrategyBalanced, StrategyGreedyMincut, StrategyMincutFM)
}

// Partition is a placement of every function node (and its edges) onto
// one of Parts shards, plus the boundary analysis the executors need:
// variables whose edges land on two or more shards are boundary
// variables, and their consensus z is the only state that must cross
// shard boundaries each iteration.
type Partition struct {
	Parts int
	// FuncPart maps function node -> shard.
	FuncPart []int
	// VarPart maps variable node -> owning shard: the shard holding the
	// most of its edges (ties to the lowest shard index). Interior
	// variables are owned by the only shard that sees them.
	VarPart []int
	// BoundaryVars lists variable nodes with edges on 2+ shards, in
	// ascending order.
	BoundaryVars []int
	// BoundaryEdges counts edges incident to boundary variables — the
	// per-iteration cross-shard traffic in m-blocks.
	BoundaryEdges int

	boundary []bool
}

// NewPartition computes the partition of g's function nodes into parts
// shards under the given strategy. parts is clamped to the function
// count (every shard gets at least a chance at work); parts < 1 is an
// error. The graph must be finalized.
func NewPartition(g *Graph, parts int, strategy PartitionStrategy) (Partition, error) {
	if !g.Finalized() {
		return Partition{}, fmt.Errorf("graph: partition requires a finalized graph")
	}
	if parts < 1 {
		return Partition{}, fmt.Errorf("graph: partition parts = %d, need >= 1", parts)
	}
	if parts > g.NumFunctions() {
		parts = g.NumFunctions()
	}
	var funcPart []int
	switch strategy {
	case "", StrategyBalanced:
		funcPart = partitionBalanced(g, parts)
	case StrategyBlock:
		funcPart = partitionBlock(g, parts)
	case StrategyGreedyMincut, StrategyMincutFM:
		funcPart = partitionGreedyMincut(g, parts)
	default:
		return Partition{}, fmt.Errorf("graph: unknown partition strategy %q", strategy)
	}
	p := Partition{Parts: parts, FuncPart: funcPart}
	p.analyze(g)
	if strategy == StrategyMincutFM {
		p.Refine(g)
	}
	return p, nil
}

// partitionBlock walks functions accumulating edge weight and cuts at
// equal shares.
func partitionBlock(g *Graph, parts int) []int {
	nF := g.NumFunctions()
	out := make([]int, nF)
	total := float64(g.NumEdges())
	var acc float64
	for a := 0; a < nF; a++ {
		s := int(acc / total * float64(parts))
		if s >= parts {
			s = parts - 1
		}
		out[a] = s
		acc += float64(g.FuncDegree(a))
	}
	return out
}

// partitionBalanced orders the functions along the variable axis and
// cuts that order at equal work mass. Each function is filed under its
// anchor — its least-degree variable, ties to the lowest index — so a
// hub variable (a consensus star's centre) never decides where its
// functions go unless it is all they have; a counting sort by anchor,
// stable in creation order, then lists the functions neighbourhood by
// neighbourhood in the builder's variable numbering (time steps in
// MPC, circle index in packing). The list is cut where the running
// funcCost crosses each 1/parts share, a function going to the share
// its midpoint falls in. O(|F| + |E| + |V|), no comparison sort.
func partitionBalanced(g *Graph, parts int) []int {
	nF, nV := g.NumFunctions(), g.NumVariables()
	// out holds each function's anchor until the cut overwrites it with
	// the shard. start[v+1] counts the functions anchored on v, then
	// (prefix sum) becomes the next free slot of v's bucket in order.
	out := make([]int, nF)
	start := make([]int32, nV+1)
	cost := make([]float64, nF)
	var total float64
	for a := 0; a < nF; a++ {
		lo, hi := g.fEdgeStart[a], g.fEdgeStart[a+1]
		best := g.edgeVar[lo]
		bestDeg := g.vEdgeStart[best+1] - g.vEdgeStart[best]
		for _, v := range g.edgeVar[lo+1 : hi] {
			if dv := g.vEdgeStart[v+1] - g.vEdgeStart[v]; dv < bestDeg || (dv == bestDeg && v < best) {
				best, bestDeg = v, dv
			}
		}
		out[a] = best
		start[best+1]++
		cost[a] = funcCost(g, a)
		total += cost[a]
	}
	for v := 0; v < nV; v++ {
		start[v+1] += start[v]
	}
	order := make([]int32, nF)
	for a, v := range out {
		order[start[v]] = int32(a)
		start[v]++
	}
	var acc float64
	prev := -1
	perWork := float64(parts) / total
	for i, a := range order {
		s := int((acc + cost[a]/2) * perWork)
		// Every shard gets a function: never skip a shard, and leave no
		// more shards than functions still to place.
		if s > prev+1 {
			s = prev + 1
		}
		if s >= parts {
			s = parts - 1
		}
		if min := parts - (nF - i); s < min {
			s = min
		}
		out[a] = s
		prev = s
		acc += cost[a]
	}
	return out
}

// funcCost prices one iteration's work for function node a as a single
// scalar — the cost model the simulators already use, collapsed: the
// x-update's Op.Work flops plus memory words, plus the words the four
// edge-proportional sweeps move for each of a's edges as
// gpusim.BuildPhaseTasks counts them (m: 3d; z: one gathered m-block
// and its CSR entry, d+1; u: 4d+2; n: 3d+1).
func funcCost(g *Graph, a int) float64 {
	deg := g.FuncDegree(a)
	w := g.ops[a].Work(deg, g.d)
	return w.Flops + w.MemWords + float64(deg*(11*g.d+4))
}

// partitionGreedyMincut is a linear deterministic greedy (LDG-style)
// streaming placement: functions are visited in creation order; each
// goes to the shard maximizing affinity * (1 - load/capacity), where
// affinity counts edges already placed on the shard that share a
// variable with the candidate. Ties break to the lighter, then lower,
// shard, so the result is deterministic.
func partitionGreedyMincut(g *Graph, parts int) []int {
	nF := g.NumFunctions()
	out := make([]int, nF)
	if parts == 1 {
		return out
	}
	// capacity: balanced edge share with 10% slack so affinity can win
	// near the boundary.
	capacity := float64(g.NumEdges())/float64(parts)*1.1 + 1
	load := make([]float64, parts)
	// varEdgesOn[v*parts+s] counts placed edges of variable v on shard s.
	varEdgesOn := make([]int32, g.NumVariables()*parts)
	affinity := make([]float64, parts)
	for a := 0; a < nF; a++ {
		lo, hi := g.FuncEdges(a)
		for s := range affinity {
			affinity[s] = 0
		}
		for e := lo; e < hi; e++ {
			row := g.EdgeVar(e) * parts
			for s := 0; s < parts; s++ {
				affinity[s] += float64(varEdgesOn[row+s])
			}
		}
		best, bestScore := 0, -1.0
		for s := 0; s < parts; s++ {
			penalty := 1 - load[s]/capacity
			if penalty < 0 {
				penalty = 0
			}
			// +1 keeps empty-affinity placements driven by load balance.
			score := (affinity[s] + 1) * penalty
			if score > bestScore || (score == bestScore && load[s] < load[best]) {
				best, bestScore = s, score
			}
		}
		out[a] = best
		load[best] += float64(hi - lo)
		for e := lo; e < hi; e++ {
			varEdgesOn[g.EdgeVar(e)*parts+best]++
		}
	}
	return out
}

// analyze fills VarPart, BoundaryVars, BoundaryEdges and the boundary
// flags from FuncPart, in two sweeps over the edges in creation order:
// the first finds each variable's first shard and whether a second one
// touches it, the second counts pins for the boundary variables only.
func (p *Partition) analyze(g *Graph) {
	nV := g.NumVariables()
	p.VarPart = make([]int, nV)
	p.boundary = make([]bool, nV)
	p.BoundaryVars = nil
	p.BoundaryEdges = 0
	for v := range p.VarPart {
		p.VarPart[v] = -1
	}
	nBoundary := 0
	for a, s := range p.FuncPart {
		for _, v := range g.edgeVar[g.fEdgeStart[a]:g.fEdgeStart[a+1]] {
			switch first := p.VarPart[v]; {
			case first < 0:
				p.VarPart[v] = s
			case first != s && !p.boundary[v]:
				p.boundary[v] = true
				nBoundary++
			}
		}
	}
	if nBoundary == 0 {
		return
	}
	// slot[v] is boundary variable v's row in the pin table.
	slot := make([]int32, nV)
	for v, is := range p.boundary {
		if is {
			slot[v] = int32(len(p.BoundaryVars))
			p.BoundaryVars = append(p.BoundaryVars, v)
			p.BoundaryEdges += g.VarDegree(v)
		}
	}
	pins := make([]int32, nBoundary*p.Parts)
	for a, s := range p.FuncPart {
		for _, v := range g.edgeVar[g.fEdgeStart[a]:g.fEdgeStart[a+1]] {
			if p.boundary[v] {
				pins[int(slot[v])*p.Parts+s]++
			}
		}
	}
	// Majority owner, ties to the lowest shard index.
	for i, v := range p.BoundaryVars {
		best := 0
		row := pins[i*p.Parts : (i+1)*p.Parts]
		for s, c := range row {
			if c > row[best] {
				best = s
			}
		}
		p.VarPart[v] = best
	}
}

// IsBoundary reports whether variable v has edges on 2+ shards.
func (p *Partition) IsBoundary(v int) bool { return p.boundary[v] }

// InteriorVars counts variables fully owned by one shard.
func (p *Partition) InteriorVars(g *Graph) int {
	return g.NumVariables() - len(p.BoundaryVars)
}

// PartLoads returns the number of edges each shard owns.
func (p *Partition) PartLoads(g *Graph) []int {
	loads := make([]int, p.Parts)
	for a, s := range p.FuncPart {
		loads[s] += g.FuncDegree(a)
	}
	return loads
}

// Validate checks the partition's invariants against g: every function
// placed on exactly one in-range shard, a shard count no larger than
// the function-node count (more parts than functions guarantees empty
// shards — NewPartition clamps, so a violation means the partition was
// built by hand), boundary analysis consistent with a brute-force
// recomputation. Intended for tests and fuzzing.
func (p *Partition) Validate(g *Graph) error {
	if p.Parts < 1 {
		return fmt.Errorf("graph: partition has %d parts", p.Parts)
	}
	if p.Parts > g.NumFunctions() {
		return fmt.Errorf("graph: %d parts exceed the %d function nodes — shards would be empty; "+
			"NewPartition clamps the part count to the function count", p.Parts, g.NumFunctions())
	}
	if len(p.FuncPart) != g.NumFunctions() {
		return fmt.Errorf("graph: partition covers %d of %d functions", len(p.FuncPart), g.NumFunctions())
	}
	for a, s := range p.FuncPart {
		if s < 0 || s >= p.Parts {
			return fmt.Errorf("graph: function %d on shard %d of %d", a, s, p.Parts)
		}
	}
	if len(p.VarPart) != g.NumVariables() || len(p.boundary) != g.NumVariables() {
		return fmt.Errorf("graph: variable analysis covers %d/%d of %d variables",
			len(p.VarPart), len(p.boundary), g.NumVariables())
	}
	wantBoundaryEdges := 0
	wantBoundary := []int{}
	onShard := map[int]bool{}
	for v := 0; v < g.NumVariables(); v++ {
		for k := range onShard {
			delete(onShard, k)
		}
		for _, e := range g.VarEdges(v) {
			onShard[p.FuncPart[g.edgeFunc(e)]] = true
		}
		if len(onShard) > 1 {
			wantBoundary = append(wantBoundary, v)
			wantBoundaryEdges += g.VarDegree(v)
			if !p.boundary[v] {
				return fmt.Errorf("graph: variable %d spans %d shards but not marked boundary", v, len(onShard))
			}
		} else if p.boundary[v] {
			return fmt.Errorf("graph: variable %d marked boundary but lives on one shard", v)
		}
		if !onShard[p.VarPart[v]] {
			return fmt.Errorf("graph: variable %d owned by shard %d which has none of its edges", v, p.VarPart[v])
		}
	}
	if len(wantBoundary) != len(p.BoundaryVars) || wantBoundaryEdges != p.BoundaryEdges {
		return fmt.Errorf("graph: boundary analysis (%d vars, %d edges) != brute force (%d vars, %d edges)",
			len(p.BoundaryVars), p.BoundaryEdges, len(wantBoundary), wantBoundaryEdges)
	}
	for i, v := range p.BoundaryVars {
		if v != wantBoundary[i] {
			return fmt.Errorf("graph: boundary var list mismatch at %d: %d != %d", i, v, wantBoundary[i])
		}
	}
	return nil
}

// edgeFunc returns the function node owning edge e by binary search over
// the function CSR. O(log |F|); partition analysis uses it instead of
// materializing an edge->function array.
func (g *Graph) edgeFunc(e int) int {
	lo, hi := 0, len(g.fEdgeStart)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if g.fEdgeStart[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// EdgeFunc returns the function node that edge e belongs to.
func (g *Graph) EdgeFunc(e int) int { return g.edgeFunc(e) }

// GatherOwners returns, per variable, the shard that combines its z
// where any shard can reach any edge's packed contribution at the same
// cost — the sharded executor on shared memory. Interior variables keep
// VarPart. Boundary variables are handed out so the z-gather load
// (GatherLoads) comes out even: the ascending boundary list is walked
// once with a shard cursor that moves on when its shard's load would
// pass the mean (midpoint rule, as partitionBalanced cuts), so each
// shard combines one contiguous run of the list and two shards do not
// write neighbouring z blocks of one cache line. A shard must hold an
// edge of a variable to combine it (it forms that edge's message in
// registers); where the cursor's shard holds none the variable stays
// with its majority owner, and so does every variable when the walk
// does not lower the largest load (a chain's or a star's one cut point
// has nothing to balance; VarPart itself is returned then, so the
// result must not be modified). VarPart, CutCost and everything a
// message transport ships keep the majority rule: there a remote edge
// is a block on the wire, and moving a variable off the shard holding
// most of its edges buys balance with bytes.
func (p *Partition) GatherOwners(g *Graph) []int {
	if len(p.BoundaryVars) == 0 {
		return p.VarPart
	}
	// Start from the majority rule's loads and take the boundary
	// variables back out: what is left is each shard's interior load.
	load := p.GatherLoads(g, p.VarPart)
	majorMax := slices.Max(load)
	for _, v := range p.BoundaryVars {
		load[p.VarPart[v]] -= g.VarDegree(v)
	}
	// Every edge is gathered by exactly one variable, so the mean load
	// is |E|/parts; the midpoint test is kept in integers.
	picked := make([]int, len(p.BoundaryVars))
	s := 0
	for i, v := range p.BoundaryVars {
		deg := g.VarDegree(v)
		for s < p.Parts-1 && (2*load[s]+deg)*p.Parts > 2*g.NumEdges() {
			s++
		}
		o := p.VarPart[v]
		for _, e := range g.VarEdges(v) {
			if p.FuncPart[g.edgeFunc(e)] == s {
				o = s
				break
			}
		}
		picked[i] = o
		load[o] += deg
	}
	if slices.Max(load) >= majorMax {
		return p.VarPart
	}
	owner := slices.Clone(p.VarPart)
	for i, v := range p.BoundaryVars {
		owner[v] = picked[i]
	}
	return owner
}

// GatherLoads returns each shard's z-gather load under the given owner
// vector: the summed degree of the variables it combines, interior and
// boundary — the edges its z-update walks per iteration.
func (p *Partition) GatherLoads(g *Graph, owner []int) []int {
	loads := make([]int, p.Parts)
	for v, s := range owner {
		loads[s] += g.VarDegree(v)
	}
	return loads
}
