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

// Backend is an admm.Backend for a simulated platform: the paper's
// Tesla K40, its serial C baseline or its 32-core machine. The host
// state advances with the fused schedule, x then the one sweep of z and
// u/n, bit-identical to the five-phase oracle. Only the charged time is
// simulated: each phase is charged its entry in a price table, the
// platform's simulated seconds per iteration of that phase under the
// paper's five-kernel launch structure. The table is computed once per
// graph from IterationTasks (the topology is immutable after Finalize).
type Backend struct {
	name  string
	price func(tasks []Task) float64 // simulated seconds for one phase

	prepared *graph.Graph
	phaseSec [admm.NumPhases]float64
}

// NewBackend returns the simulated GPU, every kernel launched at
// DefaultNtb (nil dev means a Tesla K40 profile).
func NewBackend(dev *Device) *Backend {
	if dev == nil {
		dev = TeslaK40()
	}
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	return &Backend{name: "gpusim(" + dev.Name + ")", price: func(tasks []Task) float64 {
		return dev.KernelTime(tasks, LaunchConfig{Ntb: DefaultNtb})
	}}
}

// NewCPUBackend returns the simulated serial baseline (nil cpu means
// the Opteron 6300 profile), the footing every simulated speedup is
// measured against.
func NewCPUBackend(cpu *CPUModel) *Backend {
	if cpu == nil {
		cpu = Opteron6300()
	}
	return &Backend{name: "cpusim(" + cpu.Name + ")", price: cpu.PhaseTime}
}

// NewMultiCoreBackend returns the simulated fork-join machine on cores
// cores (nil model means the 32-core Opteron profile).
func NewMultiCoreBackend(model *MultiCPUModel, cores int) *Backend {
	if model == nil {
		model = Opteron6300x32()
	}
	if cores < 1 {
		panic("gpusim: cores must be >= 1")
	}
	return &Backend{name: "multicpu-sim", price: func(tasks []Task) float64 {
		return model.PhaseTime(tasks, cores)
	}}
}

// Name implements admm.Backend.
func (b *Backend) Name() string { return b.name }

// Close implements admm.Backend.
func (b *Backend) Close() {}

// PhaseSeconds returns g's price table: simulated seconds per iteration
// per phase.
func (b *Backend) PhaseSeconds(g *graph.Graph) [admm.NumPhases]float64 {
	if b.prepared != g {
		b.phaseSec, b.prepared = b.prices(IterationTasks(g)), g
	}
	return b.phaseSec
}

// prices prices one iteration's tasks, phase by phase.
func (b *Backend) prices(tasks [admm.NumPhases][]Task) (sec [admm.NumPhases]float64) {
	for p := range sec {
		sec[p] = b.price(tasks[p])
	}
	return sec
}

// SimulatedIterationSec returns the total simulated seconds for one full
// iteration on g.
func (b *Backend) SimulatedIterationSec(g *graph.Graph) float64 {
	var s float64
	for _, v := range b.PhaseSeconds(g) {
		s += v
	}
	return s
}

// RunBlock implements admm.Backend.
func (b *Backend) RunBlock(g *graph.Graph, blk admm.Block) (admm.BlockReport, error) {
	return admm.SplitBlock(b.Iterate, g, blk)
}

// Iterate advances g by iters iterations on the host and adds each
// phase's simulated time.
func (b *Backend) Iterate(g *graph.Graph, iters int, phaseNanos *[admm.NumPhases]int64) error {
	sec := b.PhaseSeconds(g)
	for it := 0; it < iters; it++ {
		admm.UpdateXRange(g, 0, g.NumFunctions())
		admm.UpdateZUNRange(g, 0, g.NumVariables())
	}
	for p := range sec {
		phaseNanos[p] += int64(sec[p] * float64(iters) * 1e9)
	}
	return nil
}

var _ admm.Backend = (*Backend)(nil)

// Speedups compares a baseline platform's price table against an
// accelerated one's, per phase and combined for one iteration.
type Speedups struct {
	PerPhase [admm.NumPhases]float64
	Combined float64
	BaseSec  [admm.NumPhases]float64
	AccelSec [admm.NumPhases]float64
}

// compare divides base by accel, per phase and summed in phase order.
func compare(base, accel [admm.NumPhases]float64) Speedups {
	out := Speedups{BaseSec: base, AccelSec: accel}
	var bt, at float64
	for p := range base {
		bt += base[p]
		at += accel[p]
		if accel[p] > 0 {
			out.PerPhase[p] = base[p] / accel[p]
		}
	}
	if at > 0 {
		out.Combined = bt / at
	}
	return out
}

// CompareGPU computes the paper's headline measurement for a graph:
// simulated single-core time / simulated GPU time, per phase and overall.
func CompareGPU(g *graph.Graph, dev *Device, cpu *CPUModel) Speedups {
	tasks := IterationTasks(g)
	return compare(NewCPUBackend(cpu).prices(tasks), NewBackend(dev).prices(tasks))
}

// String renders the speedups compactly.
func (s Speedups) String() string {
	return fmt.Sprintf("combined %.1fx (x %.1f, m %.1f, z %.1f, u %.1f, n %.1f)",
		s.Combined, s.PerPhase[0], s.PerPhase[1], s.PerPhase[2], s.PerPhase[3], s.PerPhase[4])
}
