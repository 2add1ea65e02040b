package graph_test

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// chainOp is a placeholder proximal operator (the identity) — partition
// examples only need topology, not optimization.
type chainOp struct{}

func (chainOp) Eval(x, n, rho []float64, d int) { copy(x, n) }
func (chainOp) Work(deg, d int) graph.Work      { return graph.Work{} }

// ExamplePartition_Refine partitions a consensus chain that was built
// in scrambled order: the balanced split orders functions by variable,
// not by construction, so it already cuts the chain at its shard seams,
// and the Fiduccia–Mattheyses pass finds nothing left to win. CutCost
// is the degree-weighted cut cost: the doubles crossing shard
// boundaries per sharded iteration.
func ExamplePartition_Refine() {
	g := graph.New(2)
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(63) {
		g.AddNode(chainOp{}, i, i+1) // chain edge i — i+1, scrambled
	}
	if err := g.Finalize(); err != nil {
		panic(err)
	}

	p, err := graph.NewPartition(g, 4, graph.StrategyBalanced)
	if err != nil {
		panic(err)
	}
	fmt.Printf("balanced cut cost: %.0f words\n", graph.CutCost(g, &p))

	st := p.Refine(g)
	fmt.Printf("refined cut cost: %.0f words\n", st.CostAfter)
	fmt.Printf("still valid: %v, never worse: %v\n",
		p.Validate(g) == nil, st.CostAfter <= st.CostBefore)
	// Output:
	// balanced cut cost: 12 words
	// refined cut cost: 12 words
	// still valid: true, never worse: true
}
