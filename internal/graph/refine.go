package graph

import "math"

// This file implements the partition-quality layer on top of the
// placement heuristics in partition.go: a degree-weighted cut cost
// model (CutCost) and a Fiduccia–Mattheyses-style refinement pass
// (Partition.Refine) that sweeps boundary function nodes through a
// gain-bucket structure. docs/partitioning.md documents the cost
// model, the FM invariants, and when each strategy wins.

// CutCost returns the degree-weighted cut cost of partition p on g: the
// predicted cross-shard traffic of one sharded iteration, in doubles
// ("words"). Raw boundary-edge counts overweight low-dimensional edges;
// this model prices what the boundary-z exchange actually moves. Per
// boundary variable v with owner o = VarPart[v] (the majority shard):
//
//	cost(v) = D * ( deg(v) - pins(v,o)   remote m-block gathers
//	              + lambda(v) - 1 )      z broadcasts to remote shards
//
// where pins(v,s) counts v's edges on shard s and lambda(v) counts the
// shards v's edges touch. Interior variables cost zero, so CutCost is 0
// exactly when the partition needs no synchronization. The same model
// drives Refine's move gains, gpusim.MultiDevice's link-traffic
// prediction, and the auto-executor's shard-vs-serial decision
// (admm.AutoMaxCutShare), so predictions and refinement always optimize
// the same objective.
func CutCost(g *Graph, p *Partition) float64 {
	g.mustFinal()
	if p.Parts <= 1 {
		return 0
	}
	pins := pinCounts(g, p.FuncPart, p.Parts)
	units := 0
	for v := 0; v < g.NumVariables(); v++ {
		units += varCutUnits(pins[v*p.Parts:(v+1)*p.Parts], g.VarDegree(v))
	}
	return float64(units * g.d)
}

// LoadImbalance returns the largest shard's edge load divided by the
// mean shard load (1.0 = perfectly balanced). The bench partition sweep
// reports it next to CutCost: a strategy can only buy a smaller cut by
// spending imbalance, and this pins how much it spent.
func (p *Partition) LoadImbalance(g *Graph) float64 {
	var max int
	for _, l := range p.PartLoads(g) {
		if l > max {
			max = l
		}
	}
	return float64(max) * float64(p.Parts) / float64(g.NumEdges())
}

// WorkImbalance returns the largest shard's modelled work divided by
// the mean (1.0 = perfectly balanced), where a shard's work is the sum
// of funcCost over its functions — the quantity the balanced strategy
// equalizes. It differs from LoadImbalance wherever functions do not
// cost the same per edge.
func (p *Partition) WorkImbalance(g *Graph) float64 {
	work := make([]float64, p.Parts)
	var total, max float64
	for a, s := range p.FuncPart {
		c := funcCost(g, a)
		work[s] += c
		total += c
	}
	for _, w := range work {
		if w > max {
			max = w
		}
	}
	return max * float64(p.Parts) / total
}

// pinCounts builds the variable x shard pin table: pins[v*parts+s]
// counts edges of variable v whose function node sits on shard s.
func pinCounts(g *Graph, funcPart []int, parts int) []int32 {
	pins := make([]int32, g.NumVariables()*parts)
	for a, s := range funcPart {
		lo, hi := g.FuncEdges(a)
		for e := lo; e < hi; e++ {
			pins[g.EdgeVar(e)*parts+s]++
		}
	}
	return pins
}

// varCutUnits evaluates one variable's cut cost in units of D doubles
// from its pin row: deg - maxPins + lambda - 1, and 0 for interior
// variables (lambda <= 1). maxPins stands in for the majority owner's
// pin count — the same tie-free quantity analyze uses to pick VarPart.
func varCutUnits(row []int32, deg int) int {
	var max int32
	lambda := 0
	for _, c := range row {
		if c > 0 {
			lambda++
			if c > max {
				max = c
			}
		}
	}
	if lambda <= 1 {
		return 0
	}
	return deg - int(max) + lambda - 1
}

// RefineStats reports what one Refine call did.
type RefineStats struct {
	// Moves is the number of function-node moves kept after best-prefix
	// rollback, across all passes.
	Moves int
	// Passes is the number of FM passes executed, including the final
	// pass that found no improvement.
	Passes int
	// CostBefore and CostAfter are the degree-weighted cut cost
	// (CutCost) on entry and exit; CostAfter <= CostBefore always.
	CostBefore, CostAfter float64
}

// Refinement tuning. The balance slack matches the greedy-mincut
// placement's capacity slack so "mincut+fm" never trades more imbalance
// than its seed strategy was allowed; the pass cap bounds worst-case
// time (each improving pass strictly reduces the integer cut units, so
// termination needs no cap — runaway cost does).
const (
	refineMaxPasses    = 8
	refineBalanceSlack = 0.10
)

// Refine runs Fiduccia–Mattheyses-style boundary refinement over the
// partition in place: repeated passes sweep the boundary function nodes
// through a gain-bucket structure, greedily moving the highest-gain
// node to its best shard (accepting tentative negative-gain moves, then
// rolling back to the best prefix), until a pass finds no strict
// improvement or refineMaxPasses is hit. Gains are exact deltas of
// CutCost, so the returned stats satisfy CostAfter <= CostBefore.
//
// Moves respect a balance bound — no shard may exceed
// max(ceil((1+slack)*|E|/parts), initial max load) edges, and no shard
// is ever emptied — so refinement never worsens the load imbalance the
// input partition arrived with beyond the greedy strategies' slack.
// VarPart, BoundaryVars and BoundaryEdges are re-derived before
// returning, so the partition stays Validate-clean.
//
// The graph must be finalized and p must be a partition of g (as
// produced by NewPartition); Refine panics otherwise. The "mincut+fm"
// strategy is greedy-mincut followed by this pass; Refine can equally
// polish any other strategy's output.
func (p *Partition) Refine(g *Graph) RefineStats {
	g.mustFinal()
	if len(p.FuncPart) != g.NumFunctions() {
		panic("graph: Refine partition does not match graph")
	}
	st := RefineStats{CostBefore: CutCost(g, p)}
	st.CostAfter = st.CostBefore
	if p.Parts <= 1 {
		st.Passes = 1
		return st
	}
	f := newFM(g, p)
	for pass := 0; pass < refineMaxPasses; pass++ {
		st.Passes++
		moved := f.pass()
		st.Moves += moved
		if moved == 0 {
			break
		}
	}
	// Re-derive the boundary analysis from the (mutated) FuncPart.
	p.analyze(g)
	st.CostAfter = CutCost(g, p)
	return st
}

// fm carries the incremental state of the refinement: the pin table and
// per-shard loads that gains are computed from, mutated move by move
// and restored exactly on rollback.
type fm struct {
	g     *Graph
	parts int
	part  []int // aliases p.FuncPart; mutated in place

	pins    []int32 // variable x shard pin table
	load    []int   // edges owned per shard
	nfunc   []int   // function nodes per shard (no-emptying guard)
	maxLoad int     // balance ceiling in edges

	locked []bool
	gen    []int32 // bucket-entry validity stamps per function
}

func newFM(g *Graph, p *Partition) *fm {
	f := &fm{
		g:      g,
		parts:  p.Parts,
		part:   p.FuncPart,
		pins:   pinCounts(g, p.FuncPart, p.Parts),
		load:   make([]int, p.Parts),
		nfunc:  make([]int, p.Parts),
		locked: make([]bool, g.NumFunctions()),
		gen:    make([]int32, g.NumFunctions()),
	}
	for a, s := range f.part {
		f.load[s] += g.FuncDegree(a)
		f.nfunc[s]++
	}
	f.maxLoad = int(math.Ceil((1 + refineBalanceSlack) * float64(g.NumEdges()) / float64(p.Parts)))
	for _, l := range f.load {
		if l > f.maxLoad {
			// Never demand a tighter balance than the input partition
			// achieved: refinement must always be applicable.
			f.maxLoad = l
		}
	}
	return f
}

// isCut reports whether a pin row spans 2+ shards.
func isCut(row []int32) bool {
	seen := false
	for _, c := range row {
		if c > 0 {
			if seen {
				return true
			}
			seen = true
		}
	}
	return false
}

// shift moves function a's pins from shard `from` to shard `to`.
func (f *fm) shift(a, from, to int) {
	lo, hi := f.g.FuncEdges(a)
	for e := lo; e < hi; e++ {
		row := f.g.EdgeVar(e) * f.parts
		f.pins[row+from]--
		f.pins[row+to]++
	}
}

// cutAround sums the cut units of a's incident variables.
func (f *fm) cutAround(a int) int {
	lo, hi := f.g.FuncEdges(a)
	units := 0
	for e := lo; e < hi; e++ {
		v := f.g.EdgeVar(e)
		units += varCutUnits(f.pins[v*f.parts:(v+1)*f.parts], f.g.VarDegree(v))
	}
	return units
}

// best returns function a's highest-gain feasible move: the target
// shard minimizing the cut units of a's incident variables, under the
// balance ceiling and the no-emptying guard. Gains are exact CutCost
// deltas in units of D doubles; ties break to the lowest shard index,
// so refinement is deterministic.
func (f *fm) best(a int) (gain, target int, ok bool) {
	s := f.part[a]
	if f.nfunc[s] <= 1 {
		return 0, 0, false
	}
	w := f.g.FuncDegree(a)
	base := f.cutAround(a)
	for t := 0; t < f.parts; t++ {
		if t == s || f.load[t]+w > f.maxLoad {
			continue
		}
		f.shift(a, s, t)
		gn := base - f.cutAround(a)
		f.shift(a, t, s)
		if !ok || gn > gain {
			gain, target, ok = gn, t, true
		}
	}
	return gain, target, ok
}

// apply commits a's move to shard t; inverse restores it.
func (f *fm) apply(a, t int) {
	s := f.part[a]
	f.shift(a, s, t)
	w := f.g.FuncDegree(a)
	f.load[s] -= w
	f.load[t] += w
	f.nfunc[s]--
	f.nfunc[t]++
	f.part[a] = t
}

// fmMove logs one tentative move for best-prefix rollback.
type fmMove struct {
	a, from, to int
}

// pass runs one FM pass and returns the number of moves kept (0 when
// the pass found no strict improvement and rolled everything back).
//
// The gain-bucket invariants:
//
//   - Bucket index = gain + offset, offset = 2*maxFuncDegree: moving one
//     function changes each incident variable's cut units by at most 2
//     (pins shift by one on two shards; deg is constant, maxPins and
//     lambda each move by at most 1), so |gain| <= 2*deg(a) and every
//     gain fits the array.
//   - Entries are lazily invalidated: each push stamps the function's
//     generation, and pops discard entries whose stamp is stale or whose
//     function is locked. A popped entry's gain is recomputed against
//     the current pin table; if it degraded, the entry is re-pushed at
//     its fresh gain instead of being applied, so the applied move's
//     recorded gain is always the exact current CutCost delta.
//   - Each function moves at most once per pass (locked), bounding the
//     tentative move sequence; the kept prefix is the cumulative-gain
//     argmax, so the pass is monotone: cut units never increase.
func (f *fm) pass() int {
	for i := range f.locked {
		f.locked[i] = false
	}
	buckets := newGainBuckets(2 * f.g.maxFuncDegree())
	pushed := 0
	for a := 0; a < f.g.NumFunctions(); a++ {
		if !f.onBoundary(a) {
			continue
		}
		if gain, target, ok := f.best(a); ok {
			f.gen[a]++
			buckets.push(fmEntry{a, target, gain, f.gen[a]})
			pushed++
		}
	}
	var moves []fmMove
	cum, bestCum, bestIdx := 0, 0, -1
	// Re-pushes are bounded in practice (each needs an interleaved move
	// next to the entry), but cap pops so a pathological graph cannot
	// spin: past the cap the pass just keeps its best prefix so far.
	for pops, maxPops := 0, 32*pushed+64; pops < maxPops; pops++ {
		ent, ok := buckets.pop()
		if !ok {
			break
		}
		if f.locked[ent.a] || ent.gen != f.gen[ent.a] {
			continue
		}
		gain, target, feasible := f.best(ent.a)
		if !feasible {
			continue
		}
		if gain < ent.gain {
			f.gen[ent.a]++
			buckets.push(fmEntry{ent.a, target, gain, f.gen[ent.a]})
			continue
		}
		moves = append(moves, fmMove{ent.a, f.part[ent.a], target})
		f.apply(ent.a, target)
		f.locked[ent.a] = true
		cum += gain
		if cum > bestCum {
			bestCum, bestIdx = cum, len(moves)-1
		}
	}
	// Roll back every tentative move after the best prefix (all of
	// them when nothing strictly improved).
	for i := len(moves) - 1; i > bestIdx; i-- {
		f.apply(moves[i].a, moves[i].from)
	}
	return bestIdx + 1
}

// onBoundary reports whether any of a's variables spans 2+ shards.
func (f *fm) onBoundary(a int) bool {
	lo, hi := f.g.FuncEdges(a)
	for e := lo; e < hi; e++ {
		v := f.g.EdgeVar(e)
		if isCut(f.pins[v*f.parts : (v+1)*f.parts]) {
			return true
		}
	}
	return false
}

// fmEntry is one gain-bucket entry; gen invalidates superseded entries.
type fmEntry struct {
	a, target, gain int
	gen             int32
}

// gainBuckets is the classic FM bucket array: one LIFO bucket per
// integer gain in [-maxGain, maxGain], with a moving max pointer. Pops
// return the highest-gain entry; within a bucket the most recently
// pushed wins (deterministic, and it keeps the sweep near the region
// the last move disturbed).
type gainBuckets struct {
	off     int
	buckets [][]fmEntry
	max     int // highest possibly-non-empty bucket index
}

func newGainBuckets(maxGain int) *gainBuckets {
	return &gainBuckets{off: maxGain, buckets: make([][]fmEntry, 2*maxGain+1), max: -1}
}

func (b *gainBuckets) push(e fmEntry) {
	i := e.gain + b.off
	if i < 0 {
		i = 0 // defensively clamp; cannot happen for exact gains
	} else if i >= len(b.buckets) {
		i = len(b.buckets) - 1
	}
	b.buckets[i] = append(b.buckets[i], e)
	if i > b.max {
		b.max = i
	}
}

func (b *gainBuckets) pop() (fmEntry, bool) {
	for b.max >= 0 {
		if bkt := b.buckets[b.max]; len(bkt) > 0 {
			e := bkt[len(bkt)-1]
			b.buckets[b.max] = bkt[:len(bkt)-1]
			return e, true
		}
		b.max--
	}
	return fmEntry{}, false
}
