package bench

import (
	"fmt"
	"time"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/packing"
)

// measureIterate wall-clocks backend iterations on g (with one warmup
// iteration) and returns seconds per iteration.
func measureIterate(b admm.Backend, g *graph.Graph, iters int) float64 {
	b.RunBlock(g, admm.Block{Iters: 1}) // warmup
	start := time.Now()
	b.RunBlock(g, admm.Block{Iters: iters})
	return time.Since(start).Seconds() / float64(iters)
}

func init() {
	register(Experiment{
		ID:    "tab-ntb-packing",
		Paper: "Section V-A in-text table: packing x-update speedup vs threads-per-block",
		Desc:  "x-update speedup for ntb = 1..1024 (paper: '5.6, 5.6, 5.8, ... for ntb = 1, 2, 4, ...', best near 32).",
		Run: func(s Scale) ([]*Table, error) {
			n := 500
			if s.Full {
				n = 2000
			}
			g, err := packingGraph(n)
			if err != nil {
				return nil, err
			}
			tasks := gpusim.BuildPhaseTasks(g, admm.PhaseX)
			dev := gpusim.TeslaK40()
			cpu := gpusim.Opteron6300()
			cpuSec := cpu.PhaseTime(tasks)
			t := NewTable(fmt.Sprintf("packing N=%d x-update speedup vs ntb", n),
				"ntb", "kernel ms", "speedup")
			for _, ntb := range gpusim.StandardNtbSweep {
				gs := dev.KernelTime(tasks, gpusim.LaunchConfig{Ntb: ntb})
				t.AddRow(CellInt(ntb), Cell(gs*1e3), CellX(cpuSec/gs))
			}
			best, _ := gpusim.TuneNtb(dev, tasks, nil)
			t.AddNote("autotuned best ntb = %d (paper uses 32, 'the smallest possible sensible value')", best)
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "tab-ntb-mpc",
		Paper: "Section V-B in-text: optimal z-update ntb vs horizon K (paper: 2, 8, 16, 16, 16)",
		Desc:  "Autotuned threads-per-block for the MPC z-update kernel grows with K because small K undersubscribes the SMs.",
		Run: func(s Scale) ([]*Table, error) {
			ks := []int{200, 1000, 10000, 50000, 100000}
			if !s.Full {
				ks = []int{200, 1000, 10000, 20000}
			}
			dev := gpusim.TeslaK40()
			t := NewTable("MPC z-update optimal ntb vs K", "K", "z tasks", "best ntb", "ntb=32 penalty")
			for _, k := range ks {
				g, err := mpcGraph(k)
				if err != nil {
					return nil, err
				}
				tasks := gpusim.BuildPhaseTasks(g, admm.PhaseZ)
				best, bestSec := gpusim.TuneNtb(dev, tasks, nil)
				at32 := dev.KernelTime(tasks, gpusim.LaunchConfig{Ntb: 32})
				t.AddRow(CellInt(k), CellInt(len(tasks)), CellInt(best),
					fmt.Sprintf("%.2fx", at32/bestSec))
			}
			t.AddNote("paper found the z-update prefers ntb below the default 32 for small K and larger for big K")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "tab-svm-dim",
		Paper: "Section V-C in-text: SVM speedup vs data dimension (7-14x GPU for d=5..200 at N=1e4; 9.6x on 32 cores at d=200)",
		Desc:  "GPU and 32-core speedups as the feature dimension grows.",
		Run: func(s Scale) ([]*Table, error) {
			n := 2000
			dims := []int{5, 10, 20, 50}
			if s.Full {
				n = 10000
				dims = []int{5, 10, 20, 50, 75, 100, 150, 200}
			}
			t := NewTable(fmt.Sprintf("SVM speedup vs dimension (N=%d)", n),
				"dim", "GPU speedup", "32-core speedup")
			for _, d := range dims {
				g, err := svmGraph(n, d, s.Seed+3)
				if err != nil {
					return nil, err
				}
				gp := gpusim.CompareGPU(g, nil, nil)
				mc := gpusim.CompareMultiCPU(g, nil, 32)
				t.AddRow(CellInt(d), CellX(gp.Combined), CellX(mc.Combined))
			}
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "tab-breakdown",
		Paper: "In-text percentages: share of iteration time per update kind (e.g. packing GPU x+z = 71%; MPC GPU x+z = 80%; SVM GPU x+z = 51%; multi-CPU m+u+n = 60% for MPC)",
		Desc:  "Per-phase share of one iteration on the simulated GPU and the modeled 32-core CPU.",
		Run: func(s Scale) ([]*Table, error) {
			type domain struct {
				name  string
				build func() (*graph.Graph, error)
			}
			nPack, kMPC, nSVM := 500, 20000, 10000
			if s.Full {
				nPack, kMPC, nSVM = 2000, 100000, 75000
			}
			domains := []domain{
				{fmt.Sprintf("packing N=%d", nPack), func() (*graph.Graph, error) { return packingGraph(nPack) }},
				{fmt.Sprintf("MPC K=%d", kMPC), func() (*graph.Graph, error) { return mpcGraph(kMPC) }},
				{fmt.Sprintf("SVM N=%d", nSVM), func() (*graph.Graph, error) { return svmGraph(nSVM, 2, s.Seed+4) }},
			}
			gpu := NewTable("GPU: % of iteration per update", "workload", "x", "m", "z", "u", "n", "x+z")
			cpu := NewTable("32-core CPU: % of iteration per update", "workload", "x", "m", "z", "u", "n", "m+u+n")
			for _, d := range domains {
				g, err := d.build()
				if err != nil {
					return nil, err
				}
				gp := gpusim.CompareGPU(g, nil, nil)
				tg := totalSec(gp.AccelSec)
				gpu.AddRow(d.name,
					CellPct(gp.AccelSec[0]/tg), CellPct(gp.AccelSec[1]/tg), CellPct(gp.AccelSec[2]/tg),
					CellPct(gp.AccelSec[3]/tg), CellPct(gp.AccelSec[4]/tg),
					CellPct((gp.AccelSec[0]+gp.AccelSec[2])/tg))
				mc := gpusim.CompareMultiCPU(g, nil, 32)
				tc := totalSec(mc.AccelSec)
				cpu.AddRow(d.name,
					CellPct(mc.AccelSec[0]/tc), CellPct(mc.AccelSec[1]/tc), CellPct(mc.AccelSec[2]/tc),
					CellPct(mc.AccelSec[3]/tc), CellPct(mc.AccelSec[4]/tc),
					CellPct((mc.AccelSec[1]+mc.AccelSec[3]+mc.AccelSec[4])/tc))
			}
			return []*Table{gpu, cpu}, nil
		},
	})

	register(Experiment{
		ID:    "tab-copy-times",
		Paper: "In-text copy times: graph build+copy to GPU (packing N=5000: ~450 s; MPC K=1e5: ~13 s; SVM N=7.5e4: ~358 s) and z copy-back (0.3 ms / 3 ms / 60 ms)",
		Desc:  "Modeled host-to-device graph transfer and device-to-host z copy-back; both negligible against iterations-to-convergence.",
		Run: func(s Scale) ([]*Table, error) {
			dev := gpusim.TeslaK40()
			t := NewTable("graph copy and z copy-back times",
				"workload", "functions", "edges", "image MB", "build+copy s", "z-back ms")
			type row struct {
				name  string
				build func() (*graph.Graph, error)
			}
			nPack := 500
			if s.Full {
				nPack = 2000
			}
			rows := []row{
				{fmt.Sprintf("packing N=%d", nPack), func() (*graph.Graph, error) { return packingGraph(nPack) }},
				{"MPC K=100000", func() (*graph.Graph, error) { return mpcGraph(100000) }},
				{"SVM N=75000", func() (*graph.Graph, error) { return svmGraph(75000, 2, s.Seed+5) }},
			}
			for _, r := range rows {
				g, err := r.build()
				if err != nil {
					return nil, err
				}
				bytes := g.EncodedSize()
				copySec := dev.CopyToDeviceSec(g.NumFunctions(), g.NumEdges(), bytes)
				zBack := dev.CopyZBackSec(g.NumVariables() * g.D() * 8)
				t.AddRow(r.name, CellInt(g.NumFunctions()), CellInt(g.NumEdges()),
					Cell(float64(bytes)/1e6), Cell(copySec), Cell(zBack*1e3))
			}
			// Paper-scale packing, computed from the element-count formulas
			// without allocating the graph.
			f5000, _, e5000 := packing.ExpectedShape(5000, 3)
			img := int64(e5000)*(4*2+2)*8 + int64(e5000+f5000)*8
			t.AddRow("packing N=5000 (analytic)", CellInt(f5000), CellInt(e5000),
				Cell(float64(img)/1e6),
				Cell(dev.CopyToDeviceSec(f5000, e5000, int(img))),
				Cell(dev.CopyZBackSec(2*5000*2*8)*1e3))
			t.AddNote("paper: copy time is negligible versus >1e5 iterations to convergence, and the graph is reusable across instances")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "tab-packing-reference",
		Paper: "Section V-A: 'on a single core and for 500 circles, the time per iteration of our tool is more than 4x faster than the tool used by [9], [24]'",
		Desc:  "Measured wall time per iteration: flat-array serial engine vs the naive map-based reference engine.",
		Run: func(s Scale) ([]*Table, error) {
			n, iters := 100, 5
			if s.Full {
				n, iters = 500, 10
			}
			g1, err := packingGraph(n)
			if err != nil {
				return nil, err
			}
			g2, err := packingGraph(n)
			if err != nil {
				return nil, err
			}
			serial := measureIterate(admm.NewSerial(), g1, iters)
			ref := measureIterate(admm.NewReference(), g2, iters)
			t := NewTable(fmt.Sprintf("serial engine vs naive reference (packing N=%d, measured)", n),
				"engine", "ms/iteration", "relative")
			t.AddRow("parADMM serial (flat arrays)", Cell(serial*1e3), "1.0x")
			t.AddRow("reference (maps + per-call allocation)", Cell(ref*1e3),
				fmt.Sprintf("%.1fx slower", ref/serial))
			t.AddNote("real wall-clock measurement on this host")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5: state-of-the-art solver landscape",
		Desc:  "The paper's literature table, rendered verbatim (no measurement).",
		Run: func(s Scale) ([]*Table, error) {
			t := NewTable("state-of-the-art optimization solvers (paper Fig. 5)",
				"solver", "how general?", "parallelism?", "open?")
			for _, r := range [][4]string{
				{"Bonmin", "LP, MILP, NLP, MINLP", "-", "Y"},
				{"Couenne", "LP, MILP, NLP, MINLP", "-", "Y"},
				{"ECOS", "LP, SOCP", "-", "Y"},
				{"GLPK", "LP, MILP", "-", "Y"},
				{"Ipopt", "LP, NLP", "-", "Y"},
				{"NLopt", "NLP", "-", "Y"},
				{"SCS", "LP, SOCP, SDP", "-", "Y"},
				{"CPLEX", "LP, MILP, SOCP, MISOCP", "SMMP, CC (only for MILP)", "-"},
				{"Gurobi", "LP, MILP, SOCP, MISOCP", "SMMP, CC (only for MILP)", "-"},
				{"KNITRO", "LP, MILP, NLP, MINLP", "SMMP", "-"},
				{"Mosek", "LP, MILP, SOCP, MISOCP, SDP, NLP", "SMMP", "-"},
				{"parADMM (this repo)", "any factor-graph of proximal operators, incl. non-convex", "GPU (simulated), SMMP", "Y"},
			} {
				t.AddRow(r[0], r[1], r[2], r[3])
			}
			t.AddNote("SMMP = shared-memory multi-processor; CC = computer cluster")
			return []*Table{t}, nil
		},
	})
}
