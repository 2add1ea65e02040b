// Quickstart: the Go analogue of the paper's Figure 1 / Figure 2 —
// build the toy factor-graph
//
//	f(w) = f1(w1,w2,w3) + f2(w1,w4,w5) + f3(w2,w5) + f4(w5)
//
// with graph.AddNode and solve it on a serial, a fork-join and a
// simulated-GPU backend. The two tasks a user performs are exactly the
// paper's — specify the topology, provide serial code for each proximal
// operator — and no parallel code. Each fi pulls its variables toward a
// target point; the consensus minimizer is computable by hand, so the
// output doubles as a correctness demonstration.
package main

import (
	"fmt"
	"log"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

func main() {
	const dims = 1 // one double per edge, like the paper's simplest setup

	// f_a(s) = 1/2 sum_k (s_k - target_a)^2: a quadratic prox per block.
	quad := func(target float64) *prox.Quadratic {
		q, err := prox.NewQuadratic(linalg.Eye(1), []float64{-target})
		if err != nil {
			log.Fatal(err)
		}
		return q
	}

	build := func() *graph.Graph {
		g := graph.New(dims)
		// The paper's addNode calls, 0-indexed. Each fi is separable
		// across its variables, so it is expressed as one single-edge
		// quadratic node per variable it touches — same topology, same
		// objective, trivially-verifiable solution.
		g.AddNode(quad(1), 0) // f1 pulls w1 toward 1
		g.AddNode(quad(1), 1) // f1 pulls w2 toward 1
		g.AddNode(quad(1), 2) // f1 pulls w3 toward 1
		g.AddNode(quad(3), 0) // f2 pulls w1 toward 3
		g.AddNode(quad(3), 3) // f2 pulls w4 toward 3
		g.AddNode(quad(3), 4) // f2 pulls w5 toward 3
		g.AddNode(quad(5), 1) // f3 pulls w2 toward 5
		g.AddNode(quad(5), 4) // f3 pulls w5 toward 5
		g.AddNode(quad(9), 4) // f4 pulls w5 toward 9
		if err := g.Finalize(); err != nil {
			log.Fatal(err)
		}
		g.SetUniformParams(1.0, 1.0) // initialize_RHOS_ALPHAS
		g.InitZero()
		return g
	}

	// The executor is a declarative admm.ExecutorSpec — or, for the
	// paper's fork-join loops and simulated devices, which no spec names,
	// a Backend handed to admm.Run (the GPU's reported times are
	// simulated, its iterates exact).
	const maxIter, tol = 2000, 1e-10
	backends := []struct {
		name    string
		spec    admm.ExecutorSpec
		backend admm.Backend
	}{
		{name: "serial"},
		{name: "parallel", backend: admm.NewParallelFor(2)},
		{name: "gpu", backend: gpusim.NewBackend(nil)},
	}
	for _, b := range backends {
		g := build()
		var res admm.Result
		var err error
		if b.backend != nil {
			res, err = admm.Run(g, admm.Options{Backend: b.backend, MaxIter: maxIter, AbsTol: tol, RelTol: tol})
		} else {
			res, err = admm.Solve(g, admm.SolveOptions{Executor: b.spec, MaxIter: maxIter, AbsTol: tol, RelTol: tol})
		}
		if err != nil {
			log.Fatal(err)
		}

		// Analytic minimizers: w1 = mean(1,3) = 2, w2 = mean(1,5) = 3,
		// w3 = 1, w4 = 3, w5 = mean(3,5,9) = 17/3.
		fmt.Printf("backend=%-8s converged=%v iters=%d\n", b.name, res.Converged, res.Iterations)
		want := []float64{2, 3, 1, 3, 17.0 / 3}
		for v, w := range want {
			got := g.ReadSolution(v, nil)[0]
			fmt.Printf("  w%d = %8.5f (exact %8.5f)\n", v+1, got, w)
		}
	}
}
