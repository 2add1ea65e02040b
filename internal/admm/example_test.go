package admm_test

import (
	"fmt"
	"log"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// ExampleSolve builds the smallest possible consensus problem — two
// quadratics pulling one shared variable toward 1 and 3 — and solves it
// with the declarative executor spec. The minimizer is the midpoint.
func ExampleSolve() {
	pull := func(target float64) graph.Op {
		q, err := prox.NewQuadratic(linalg.Eye(1), []float64{-target})
		if err != nil {
			log.Fatal(err)
		}
		return q
	}
	g := graph.New(1)
	g.AddNode(pull(1), 0)
	g.AddNode(pull(3), 0)
	if err := g.Finalize(); err != nil {
		log.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()

	res, err := admm.Solve(g, admm.SolveOptions{
		Executor: admm.ExecutorSpec{Kind: admm.ExecAuto},
		MaxIter:  1000,
		AbsTol:   1e-9,
		RelTol:   1e-9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged: %t\n", res.Converged)
	fmt.Printf("z = %.3f\n", g.ReadSolution(0, nil)[0])
	// Output:
	// converged: true
	// z = 2.000
}
