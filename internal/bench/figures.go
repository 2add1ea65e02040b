package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/admm"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/svm"
)

// Workload builders shared by the experiments.

func packingGraph(n int) (*graph.Graph, error) {
	p, err := packing.Build(packing.Config{N: n})
	if err != nil {
		return nil, err
	}
	p.InitRandom(rand.New(rand.NewSource(1)))
	return p.Graph, nil
}

func mpcGraph(k int) (*graph.Graph, error) {
	p, err := mpc.Build(mpc.Config{K: k})
	if err != nil {
		return nil, err
	}
	p.Graph.InitZero()
	return p.Graph, nil
}

func svmGraph(n, dim int, seed int64) (*graph.Graph, error) {
	ds := svm.TwoGaussians(n, dim, 4, rand.New(rand.NewSource(seed)))
	p, err := svm.Build(svm.Config{Data: ds})
	if err != nil {
		return nil, err
	}
	p.Graph.InitZero()
	return p.Graph, nil
}

func packingSizes(s Scale) []int {
	if s.Full {
		// N=5000 (the paper's largest) needs ~7 GB of ADMM state plus
		// task meters; 3000 keeps the full run under typical memory.
		return []int{100, 500, 1000, 2000, 3000}
	}
	// Quick stops where the curves have their shape: N=1000 (half a
	// million collision nodes) costs more than the rest of the quick
	// registry together and moves no conclusion.
	return []int{100, 250, 500}
}

func mpcSizes(s Scale) []int {
	if s.Full {
		return []int{200, 1000, 10000, 50000, 100000}
	}
	return []int{200, 1000, 5000, 20000}
}

func svmSizes(s Scale) []int {
	if s.Full {
		return []int{1000, 10000, 25000, 50000, 75000, 100000}
	}
	return []int{500, 2000, 10000, 30000}
}

func totalSec(v [admm.NumPhases]float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// gpuFigure renders a paper GPU figure: combined speedup + per-10/100/
// 1000-iteration times (left plot) and per-update speedups (right plot).
func gpuFigure(title, sizeLabel string, sizes []int, itersShown int,
	build func(int) (*graph.Graph, error)) ([]*Table, error) {
	left := NewTable(title+" — combined (left plot)",
		sizeLabel, "graph edges",
		fmt.Sprintf("CPU s/%dit", itersShown), fmt.Sprintf("GPU s/%dit", itersShown), "speedup")
	right := NewTable(title+" — per-update speedups (right plot)",
		sizeLabel, "x-update", "m-update", "z-update", "u-update", "n-update")
	var xs, combined, xups []float64
	for _, n := range sizes {
		g, err := build(n)
		if err != nil {
			return nil, err
		}
		s := gpusim.CompareGPU(g, nil, nil)
		left.AddRow(CellInt(n), CellInt(g.NumEdges()),
			Cell(totalSec(s.BaseSec)*float64(itersShown)),
			Cell(totalSec(s.AccelSec)*float64(itersShown)),
			CellX(s.Combined))
		right.AddRow(CellInt(n),
			CellX(s.PerPhase[admm.PhaseX]), CellX(s.PerPhase[admm.PhaseM]),
			CellX(s.PerPhase[admm.PhaseZ]), CellX(s.PerPhase[admm.PhaseU]),
			CellX(s.PerPhase[admm.PhaseN]))
		xs = append(xs, float64(n))
		combined = append(combined, s.Combined)
		xups = append(xups, s.PerPhase[admm.PhaseX])
	}
	left.AddNote("GPU time is simulated (Tesla-K40-class device model); CPU time is the matching single-core model, substituted for the paper's measured K40 and Opteron runs.")
	chart := NewChart(title+" (curve)", sizeLabel, "speedup")
	chart.AddSeries("combined", xs, combined)
	chart.AddSeries("x-update", xs, xups)
	AttachChart(left, chart)
	return []*Table{left, right}, nil
}

// cpuFigure renders a paper multi-CPU figure: size sweep at a fixed core
// count (left) plus a core sweep at a fixed size (right).
func cpuFigure(title, sizeLabel string, sizes []int, itersShown, coresLeft, sizeRight int,
	build func(int) (*graph.Graph, error)) ([]*Table, error) {
	left := NewTable(fmt.Sprintf("%s — combined at %d cores (left plot)", title, coresLeft),
		sizeLabel, fmt.Sprintf("1-core s/%dit", itersShown),
		fmt.Sprintf("%d-core s/%dit", coresLeft, itersShown), "speedup", "GPU speedup (ref)")
	for _, n := range sizes {
		g, err := build(n)
		if err != nil {
			return nil, err
		}
		mc := gpusim.CompareMultiCPU(g, nil, coresLeft)
		gp := gpusim.CompareGPU(g, nil, nil)
		left.AddRow(CellInt(n),
			Cell(totalSec(mc.BaseSec)*float64(itersShown)),
			Cell(totalSec(mc.AccelSec)*float64(itersShown)),
			CellX(mc.Combined), CellX(gp.Combined))
	}
	right := NewTable(fmt.Sprintf("%s — speedup vs cores at %s=%d (right plot)", title, sizeLabel, sizeRight),
		"cores", "speedup")
	g, err := build(sizeRight)
	if err != nil {
		return nil, err
	}
	var cxs, cys []float64
	for _, cores := range []int{1, 2, 4, 8, 12, 16, 20, 24, 25, 28, 32} {
		mc := gpusim.CompareMultiCPU(g, nil, cores)
		right.AddRow(CellInt(cores), CellX(mc.Combined))
		cxs = append(cxs, float64(cores))
		cys = append(cys, mc.Combined)
	}
	left.AddNote("multi-core times use the modeled 32-core Opteron-6300 fork-join profile (substituted for the paper's measured runs: this host has too few cores to measure them).")
	chart := NewChart(title+" — speedup vs cores (curve)", "cores", "speedup")
	chart.AddSeries("combined", cxs, cys)
	AttachChart(right, chart)
	return []*Table{left, right}, nil
}

func init() {
	register(Experiment{
		ID:    "fig7",
		Paper: "Figure 7: GPU vs CPU in circle packing",
		Desc:  "Combined and per-update GPU speedups vs number of circles N; time for 10 iterations.",
		Run: func(s Scale) ([]*Table, error) {
			return gpuFigure("Fig 7: packing GPU speedup", "N circles", packingSizes(s), 10, packingGraph)
		},
	})
	register(Experiment{
		ID:    "fig8",
		Paper: "Figure 8: multi-CPU vs single CPU in circle packing",
		Desc:  "Combined multi-core speedup vs N (left) and speedup vs cores (right).",
		Run: func(s Scale) ([]*Table, error) {
			right := 500
			if s.Full {
				right = 3000
			}
			return cpuFigure("Fig 8: packing multi-CPU", "N circles", packingSizes(s), 10, 32, right, packingGraph)
		},
	})
	register(Experiment{
		ID:    "fig10",
		Paper: "Figure 10: GPU speedup for MPC",
		Desc:  "Combined and per-update GPU speedups vs prediction horizon K; time for 100 iterations.",
		Run: func(s Scale) ([]*Table, error) {
			return gpuFigure("Fig 10: MPC GPU speedup", "horizon K", mpcSizes(s), 100, mpcGraph)
		},
	})
	register(Experiment{
		ID:    "fig11",
		Paper: "Figure 11: multi-CPU speedup for MPC",
		Desc:  "Combined multi-core speedup vs K at 25 cores (left) and speedup vs cores at K=1e5 (right).",
		Run: func(s Scale) ([]*Table, error) {
			right := 20000
			if s.Full {
				right = 100000
			}
			return cpuFigure("Fig 11: MPC multi-CPU", "horizon K", mpcSizes(s), 100, 25, right, mpcGraph)
		},
	})
	register(Experiment{
		ID:    "fig13",
		Paper: "Figure 13: GPU speedup for binary classification (SVM)",
		Desc:  "Combined and per-update GPU speedups vs number of data points N; time for 1000 iterations.",
		Run: func(s Scale) ([]*Table, error) {
			build := func(n int) (*graph.Graph, error) { return svmGraph(n, 2, s.Seed+1) }
			return gpuFigure("Fig 13: SVM GPU speedup", "N points", svmSizes(s), 1000, build)
		},
	})
	register(Experiment{
		ID:    "fig14",
		Paper: "Figure 14: multi-CPU speedup for binary classification (SVM)",
		Desc:  "Combined multi-core speedup vs N at 32 cores (left) and speedup vs cores at N=7.5e4 (right).",
		Run: func(s Scale) ([]*Table, error) {
			build := func(n int) (*graph.Graph, error) { return svmGraph(n, 2, s.Seed+2) }
			right := 30000
			if s.Full {
				right = 75000
			}
			return cpuFigure("Fig 14: SVM multi-CPU", "N points", svmSizes(s), 1000, 32, right, build)
		},
	})
}
