package bench

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/lasso"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/prox"
	"repro/internal/sched"
	"repro/internal/shard"
)

// skewedGraph builds a consensus graph with a heavy-tailed variable
// degree distribution: a few hub variables with degree ~hubDeg, many
// leaves — the z-update pathology from the paper's Conclusion.
func skewedGraph(nLeaves, nHubs, hubDeg int, seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(2)
	// Hubs occupy variables 0..nHubs-1; leaves follow.
	for h := 0; h < nHubs; h++ {
		for k := 0; k < hubDeg; k++ {
			leaf := nHubs + rng.Intn(nLeaves)
			g.AddNode(prox.Consensus{Dim: 2}, h, leaf)
		}
	}
	// Anchor every leaf so none is isolated.
	for l := 0; l < nLeaves; l++ {
		g.AddNode(prox.SquaredNorm{C: 0.5, Dim: 2}, nHubs+l)
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.SetUniformParams(1, 1)
	g.InitRandom(-1, 1, rng)
	return g, nil
}

func init() {
	register(Experiment{
		ID:    "abl-balanced-z",
		Paper: "Conclusion: 'a scheduling scheme where each CUDA thread is responsible for ... groups such that the total number of edges per group is as uniform as possible'",
		Desc:  "Degree-balanced z-update grouping vs contiguous chunking on a skewed graph: partition imbalance and modeled z-phase time.",
		Run: func(s Scale) ([]*Table, error) {
			nLeaves, nHubs, hubDeg := 2000, 4, 500
			if s.Full {
				nLeaves, nHubs, hubDeg = 20000, 8, 4000
			}
			g, err := skewedGraph(nLeaves, nHubs, hubDeg, s.Seed+10)
			if err != nil {
				return nil, err
			}
			tasks := gpusim.BuildPhaseTasks(g, admm.PhaseZ)
			cpu := gpusim.Opteron6300()
			weights := make([]float64, len(tasks))
			for i, task := range tasks {
				weights[i] = cpu.TaskCycles(task)
			}
			t := NewTable("z-update partitioning on a degree-skewed graph",
				"cores", "contiguous imbalance", "balanced imbalance", "modeled z speed gain")
			for _, cores := range []int{4, 8, 16, 32} {
				contig := make([]float64, cores)
				for p, r := range sched.Chunks(len(tasks), cores) {
					for i := r.Lo; i < r.Hi; i++ {
						contig[p] += weights[i]
					}
				}
				var contigMax float64
				for _, l := range contig {
					if l > contigMax {
						contigMax = l
					}
				}
				groups, balMax := sched.BalancedGroups(weights, cores)
				loads := make([]float64, len(groups))
				for gi, items := range groups {
					for _, it := range items {
						loads[gi] += weights[it]
					}
				}
				t.AddRow(CellInt(cores),
					fmt.Sprintf("%.2f", sched.Imbalance(contig)),
					fmt.Sprintf("%.2f", sched.Imbalance(loads)),
					fmt.Sprintf("%.2fx", contigMax/balMax))
			}
			t.AddNote("imbalance = max group load / mean; the z phase finishes with its heaviest group, so the gain column is the modeled phase speedup")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-async",
		Paper: "Future work 1: 'use asynchronous implementations of the ADMM so that not all cores need to wait for the busiest core'",
		Desc:  "Randomized-activation asynchronous ADMM vs the synchronous sweep: iterations to reach a primal-residual target on a consensus Lasso.",
		Run: func(s Scale) ([]*Table, error) {
			m, p := 60, 12
			if s.Full {
				m, p = 200, 40
			}
			inst := lasso.Synthetic(m, p, p/4, 0.05, rand.New(rand.NewSource(s.Seed+11)))
			run := func(backend admm.Backend, name string, t *Table) error {
				lp, err := lasso.Build(lasso.Config{Inst: inst, Blocks: 6, Lambda: 0.3})
				if err != nil {
					return err
				}
				lp.Graph.InitZero()
				target := 1e-6
				reached := -1
				_, err = admm.Run(lp.Graph, admm.Options{
					MaxIter: 20000, Backend: backend, CheckEvery: 10,
					OnIteration: func(iter int, primal, dual float64) bool {
						if primal <= target {
							reached = iter
							return false
						}
						return true
					},
				})
				if err != nil {
					return err
				}
				gap := lp.OptimalityGap(lp.Coefficients())
				t.AddRow(name, CellInt(reached), Cell(gap))
				return nil
			}
			t := NewTable("synchronous vs asynchronous ADMM (consensus Lasso)",
				"schedule", "iterations to primal<=1e-6", "final optimality gap")
			if err := run(admm.NewSerial(), "synchronous sweep", t); err != nil {
				return nil, err
			}
			async := admm.NewAsync(s.Seed + 12)
			defer async.Close()
			if err := run(async, "async random activation", t); err != nil {
				return nil, err
			}
			t.AddNote("-1 iterations means the target was not reached within the budget; async needs no inter-phase barriers but pays in iteration efficiency")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-adaptive-rho",
		Paper: "Section II: 'improved [rho/alpha] update schemes (e.g. [9]) which parADMM can also implement'",
		Desc:  "Residual-balancing adaptive rho vs a badly-chosen fixed rho on an MPC instance: iterations to convergence.",
		Run: func(s Scale) ([]*Table, error) {
			k := 20
			if s.Full {
				k = 60
			}
			t := NewTable(fmt.Sprintf("fixed vs adaptive rho (MPC K=%d)", k),
				"scheme", "iterations", "converged")
			for _, row := range []struct {
				name  string
				adapt *admm.AdaptConfig
			}{
				{"fixed rho=200 (badly tuned)", nil},
				{"adaptive (mu=10, tau=2)", &admm.AdaptConfig{Mu: 10, Tau: 2}},
			} {
				p, err := mpc.Build(mpc.Config{K: k, Rho: 200})
				if err != nil {
					return nil, err
				}
				p.Graph.InitZero()
				res, err := admm.Run(p.Graph, admm.Options{
					MaxIter: 60000, AbsTol: 1e-8, RelTol: 1e-8, CheckEvery: 25,
					Adapt: row.adapt,
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(row.name, CellInt(res.Iterations), fmt.Sprintf("%v", res.Converged))
			}
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-devices",
		Paper: "Future work 5: 'test the tool on different GPUs ... for example, NVIDIA's GeForce GTX TITAN X'",
		Desc:  "Hardware sensitivity: combined simulated speedup on a K40-class vs TITAN-X-class device profile.",
		Run: func(s Scale) ([]*Table, error) {
			nPack, kMPC, nSVM := 500, 20000, 10000
			if s.Full {
				nPack, kMPC, nSVM = 2000, 100000, 50000
			}
			t := NewTable("device sensitivity (combined speedup vs 1 CPU core)",
				"workload", gpusim.TeslaK40().Name, gpusim.TitanXLike().Name)
			add := func(name string, g *graph.Graph) {
				k40 := gpusim.CompareGPU(g, gpusim.TeslaK40(), nil, [admm.NumPhases]int{}, false)
				tx := gpusim.CompareGPU(g, gpusim.TitanXLike(), nil, [admm.NumPhases]int{}, false)
				t.AddRow(name, CellX(k40.Combined), CellX(tx.Combined))
			}
			g, err := packingGraph(nPack)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("packing N=%d", nPack), g)
			g, err = mpcGraph(kMPC)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("MPC K=%d", kMPC), g)
			g, err = svmGraph(nSVM, 2, s.Seed+13)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("SVM N=%d", nSVM), g)
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-multigpu",
		Paper: "Future work 3: 'extend the code to allow the use of multiple GPUs and multiple computers'",
		Desc:  "Simulated multi-device scaling with locality-aware partitioning: chain-like MPC scales, the dense packing graph does not.",
		Run: func(s Scale) ([]*Table, error) {
			kMPC, nPack := 20000, 300
			if s.Full {
				kMPC, nPack = 100000, 1000
			}
			counts := []int{1, 2, 4, 8}
			t := NewTable("multi-GPU scaling (simulated, locality-aware partition)",
				"workload", "devices", "speedup", "boundary vars", "exchange share")
			add := func(name string, g *graph.Graph) error {
				pts, err := gpusim.Scaling(g, nil, counts)
				if err != nil {
					return err
				}
				for _, p := range pts {
					t.AddRow(name, CellInt(p.Devices), CellX(p.Speedup),
						CellInt(p.BoundaryVars), CellPct(p.ExchangeShare))
				}
				return nil
			}
			g, err := mpcGraph(kMPC)
			if err != nil {
				return nil, err
			}
			if err := add(fmt.Sprintf("MPC K=%d (chain)", kMPC), g); err != nil {
				return nil, err
			}
			g, err = packingGraph(nPack)
			if err != nil {
				return nil, err
			}
			if err := add(fmt.Sprintf("packing N=%d (dense)", nPack), g); err != nil {
				return nil, err
			}
			t.AddNote("dense all-pairs graphs make every variable a boundary variable; chains cut at devices-1 places — decomposition topology decides multi-device viability")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-twa",
		Paper: "Section II: 'improved update schemes (e.g. [9] which parADMM can also implement)' — the three-weight algorithm",
		Desc:  "Standard weights vs TWA (inactive constraints abstain) on circle packing: iterations until the configuration is geometrically valid.",
		Run: func(s Scale) ([]*Table, error) {
			n := 6
			if s.Full {
				n = 12
			}
			t := NewTable(fmt.Sprintf("standard vs three-weight messages (packing N=%d)", n),
				"scheme", "iters to valid (tol 1e-3)", "final coverage")
			for _, row := range []struct {
				name string
				mk   func() admm.Backend
			}{
				{"standard weights", func() admm.Backend { return admm.NewSerial() }},
				{"three-weight (TWA)", func() admm.Backend { return admm.NewTWA() }},
			} {
				p, err := packing.Build(packing.Config{N: n})
				if err != nil {
					return nil, err
				}
				p.InitRandom(rand.New(rand.NewSource(s.Seed + 20)))
				backend := row.mk()
				reached := -1
				var nanos [admm.NumPhases]int64
				for it := 0; it < 20000; it += 50 {
					backend.Iterate(p.Graph, 50, &nanos)
					if p.CheckValidity().Valid(1e-3) {
						reached = it + 50
						break
					}
				}
				backend.Close()
				t.AddRow(row.name, CellInt(reached), CellPct(p.Coverage()))
			}
			t.AddNote("-1 means not valid within 20000 iterations; TWA lets satisfied constraints abstain so active ones dominate the consensus")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "abl-openmp-strategy",
		Paper: "Figure 4: fork-join parallel loops vs persistent workers with barriers ('the first approach was faster in all three problems')",
		Desc:  "Measured wall time per iteration of the two shared-memory strategies on this host.",
		Run: func(s Scale) ([]*Table, error) {
			n := 200
			iters := 10
			if s.Full {
				n = 500
				iters = 20
			}
			workers := runtime.NumCPU()
			if workers > 8 {
				workers = 8
			}
			if workers < 2 {
				workers = 2
			}
			g1, err := packingGraph(n)
			if err != nil {
				return nil, err
			}
			g2, err := packingGraph(n)
			if err != nil {
				return nil, err
			}
			pf := admm.NewParallelFor(workers)
			// Persistent workers, each owning one balanced share of the
			// function nodes, separated by barriers: the sharded
			// executor over shared memory.
			bw, err := shard.New(workers)
			if err != nil {
				return nil, err
			}
			defer bw.Close()
			t := NewTable(fmt.Sprintf("shared-memory strategies (packing N=%d, %d workers, measured)", n, workers),
				"strategy", "ms/iteration")
			t.AddRow("fork-join parallel loops", Cell(measureIterate(pf, g1, iters)*1e3))
			t.AddRow("persistent workers + barriers", Cell(measureIterate(bw, g2, iters)*1e3))
			t.AddNote("real measurement; with %d logical CPUs on this host the gap reflects synchronization overhead, not scalability", runtime.NumCPU())
			return []*Table{t}, nil
		},
	})
}
