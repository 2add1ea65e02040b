package gpusim

import (
	"fmt"

	"repro/internal/admm"
	"repro/internal/graph"
)

// DefaultNtb is the paper's default launch width: "Most of the time, we
// use ntb = 32, the smallest possible sensible value."
const DefaultNtb = 32

// StandardNtbSweep is the candidate list the paper sweeps ("ntb =
// 1, 2, 4, 8, 16, ..., 512") plus NVIDIA's suggested 1024.
var StandardNtbSweep = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// TuneNtb returns the candidate ntb with the lowest simulated kernel
// time for the given tasks, and that time. An empty candidate list uses
// StandardNtbSweep. This automates the paper's manual per-kernel tuning
// (future-work direction: the z-update prefers smaller ntb than 32).
func TuneNtb(dev *Device, tasks []Task, candidates []int) (int, float64) {
	if len(candidates) == 0 {
		candidates = StandardNtbSweep
	}
	bestNtb, bestTime := candidates[0], dev.KernelTime(tasks, LaunchConfig{Ntb: candidates[0]})
	for _, ntb := range candidates[1:] {
		if t := dev.KernelTime(tasks, LaunchConfig{Ntb: ntb}); t < bestTime {
			bestNtb, bestTime = ntb, t
		}
	}
	return bestNtb, bestTime
}

// Backend is an admm.Backend that executes the five update kernels
// functionally on the host (bit-identical iterates to the serial engine)
// while accounting simulated GPU time per phase. It is the stand-in for
// running parADMM's CUDA kernels on a Tesla K40.
type Backend struct {
	Dev *Device
	// Ntb fixes threads-per-block per phase; a zero entry means
	// DefaultNtb, or autotuned when AutoTune is set.
	Ntb [admm.NumPhases]int
	// AutoTune selects the best ntb per phase by simulation at first use.
	AutoTune bool

	prepared  *graph.Graph
	phaseSec  [admm.NumPhases]float64
	chosenNtb [admm.NumPhases]int
}

// NewBackend returns a GPU-simulator backend for dev (nil means a Tesla
// K40 profile).
func NewBackend(dev *Device) *Backend {
	if dev == nil {
		dev = TeslaK40()
	}
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	return &Backend{Dev: dev}
}

// Name implements admm.Backend.
func (b *Backend) Name() string { return "gpusim(" + b.Dev.Name + ")" }

// Close implements admm.Backend.
func (b *Backend) Close() {}

// prepare computes per-phase simulated kernel times for g. The factor
// graph topology is immutable after Finalize, so kernel time is constant
// across iterations and computed once.
func (b *Backend) prepare(g *graph.Graph) {
	if b.prepared == g {
		return
	}
	tasks := IterationTasks(g)
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		ntb := b.Ntb[p]
		switch {
		case ntb > 0:
			b.phaseSec[p] = b.Dev.KernelTime(tasks[p], LaunchConfig{Ntb: ntb})
			b.chosenNtb[p] = ntb
		case b.AutoTune:
			b.chosenNtb[p], b.phaseSec[p] = TuneNtb(b.Dev, tasks[p], nil)
		default:
			b.phaseSec[p] = b.Dev.KernelTime(tasks[p], LaunchConfig{Ntb: DefaultNtb})
			b.chosenNtb[p] = DefaultNtb
		}
	}
	b.prepared = g
}

// ChosenNtb reports the per-phase launch widths in effect after the
// first Iterate (or PhaseSeconds) call.
func (b *Backend) ChosenNtb(g *graph.Graph) [admm.NumPhases]int {
	b.prepare(g)
	return b.chosenNtb
}

// PhaseSeconds reports the simulated per-iteration kernel time per phase.
func (b *Backend) PhaseSeconds(g *graph.Graph) [admm.NumPhases]float64 {
	b.prepare(g)
	return b.phaseSec
}

// Iterate implements admm.Backend: it advances the ADMM state with the
// host kernels and charges simulated device time.
func (b *Backend) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	b.prepare(g)
	for it := 0; it < iters; it++ {
		admm.UpdateXRange(g, 0, g.NumFunctions())
		admm.UpdateMRange(g, 0, g.NumEdges())
		admm.UpdateZRange(g, 0, g.NumVariables())
		admm.UpdateURange(g, 0, g.NumEdges())
		admm.UpdateNRange(g, 0, g.NumEdges())
	}
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		phaseNanos[p] += int64(b.phaseSec[p] * float64(iters) * 1e9)
	}
	return nil
}

var _ admm.Backend = (*Backend)(nil)

// SimulatedIterationSec returns the total simulated seconds for one full
// iteration on g.
func (b *Backend) SimulatedIterationSec(g *graph.Graph) float64 {
	b.prepare(g)
	var s float64
	for _, v := range b.phaseSec {
		s += v
	}
	return s
}

// CPUBackend is an admm.Backend that advances the state identically but
// charges modeled single-core time from the CPUModel — the simulated
// counterpart of the paper's serial C baseline, used whenever a speedup
// must compare simulated GPU time against simulated CPU time on equal
// footing. The host state advances with the fused two-pass kernels
// (bit-identical iterates, less wall time spent simulating); the
// *charged* time stays the five-phase model: this backend stands in for
// the paper's serial C engine, whose launch structure is what the cost
// meters describe.
type CPUBackend struct {
	CPU *CPUModel

	prepared *graph.Graph
	phaseSec [admm.NumPhases]float64
}

// NewCPUBackend returns a simulated serial backend (nil means the
// Opteron 6300 profile).
func NewCPUBackend(cpu *CPUModel) *CPUBackend {
	if cpu == nil {
		cpu = Opteron6300()
	}
	return &CPUBackend{CPU: cpu}
}

// Name implements admm.Backend.
func (b *CPUBackend) Name() string { return "cpusim(" + b.CPU.Name + ")" }

// Close implements admm.Backend.
func (b *CPUBackend) Close() {}

func (b *CPUBackend) prepare(g *graph.Graph) {
	if b.prepared == g {
		return
	}
	tasks := IterationTasks(g)
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		b.phaseSec[p] = b.CPU.PhaseTime(tasks[p])
	}
	b.prepared = g
}

// PhaseSeconds reports modeled per-iteration seconds per phase.
func (b *CPUBackend) PhaseSeconds(g *graph.Graph) [admm.NumPhases]float64 {
	b.prepare(g)
	return b.phaseSec
}

// Iterate implements admm.Backend.
func (b *CPUBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	b.prepare(g)
	hostAdvance(g, iters)
	for p := admm.Phase(0); p < admm.NumPhases; p++ {
		phaseNanos[p] += int64(b.phaseSec[p] * float64(iters) * 1e9)
	}
	return nil
}

// hostAdvance moves the ADMM state forward on the host for a simulated
// CPU backend with the fused two-pass kernels (bit-identical to the
// five-phase reference, ~1/3 less memory traffic).
func hostAdvance(g *graph.Graph, iters int) {
	for it := 0; it < iters; it++ {
		admm.UpdateXRange(g, 0, g.NumFunctions())
		admm.UpdateZFusedRange(g, 0, g.NumVariables())
		admm.UpdateUNRange(g, 0, g.NumEdges())
	}
}

var _ admm.Backend = (*CPUBackend)(nil)

// Speedups compares modeled CPU time against simulated GPU time per
// phase and combined for one iteration on g.
type Speedups struct {
	PerPhase [admm.NumPhases]float64
	Combined float64
	GPUSec   [admm.NumPhases]float64
	CPUSec   [admm.NumPhases]float64
}

// CompareGPU computes the paper's headline measurement for a graph:
// simulated single-core time / simulated GPU time, per phase and overall.
func CompareGPU(g *graph.Graph, dev *Device, cpu *CPUModel, ntb [admm.NumPhases]int, autoTune bool) Speedups {
	gb := NewBackend(dev)
	gb.Ntb = ntb
	gb.AutoTune = autoTune
	cb := NewCPUBackend(cpu)
	gsec := gb.PhaseSeconds(g)
	csec := cb.PhaseSeconds(g)
	var out Speedups
	out.GPUSec, out.CPUSec = gsec, csec
	var gt, ct float64
	for p := 0; p < int(admm.NumPhases); p++ {
		gt += gsec[p]
		ct += csec[p]
		if gsec[p] > 0 {
			out.PerPhase[p] = csec[p] / gsec[p]
		}
	}
	if gt > 0 {
		out.Combined = ct / gt
	}
	return out
}

// String renders the speedups compactly.
func (s Speedups) String() string {
	return fmt.Sprintf("combined %.1fx (x %.1f, m %.1f, z %.1f, u %.1f, n %.1f)",
		s.Combined, s.PerPhase[0], s.PerPhase[1], s.PerPhase[2], s.PerPhase[3], s.PerPhase[4])
}
