package gpusim

import (
	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/sched"
)

// MultiCPUModel models the paper's shared-memory multi-core platform —
// up to 32 cores of AMD Opteron Abu Dhabi 6300 — running the fork-join
// executor (five parallel loops per iteration, the paper's faster OpenMP
// strategy). The single-core cost comes from the same CPUModel task
// meters as the serial baseline; parallel scaling is limited by:
//
//   - static contiguous chunking: a phase finishes with its heaviest
//     chunk (degree skew hurts the z-update, the pathology the paper's
//     Conclusion discusses);
//   - module-shared FPUs: Piledriver pairs two "cores" per FP unit, so
//     floating-point throughput stops scaling at FPUs, not Cores;
//   - shared DRAM bandwidth: streaming phases (m/u/n) saturate the
//     socket long before 32 cores — the paper's 5-9x multi-core ceiling
//     against 16-18x on the GPU;
//   - cross-socket degradation and fork-join barrier cost that grow with
//     the thread count — the paper's "for large problems, as we add more
//     cores, the performance actually gets hurt" (Fig. 11-right).
type MultiCPUModel struct {
	CPU   *CPUModel
	Cores int // maximum cores (the paper sweeps 1..32)
	FPUs  int // shared floating-point units (16 on 32-core Piledriver)

	SocketBandwidth    float64 // aggregate DRAM bytes/s at full subscription
	DegradePerCore     float64 // fractional bandwidth loss per core past DegradeAfter
	DegradeAfter       int
	ForkJoinBaseSec    float64 // per parallel-for fixed cost
	ForkJoinPerCoreSec float64 // per-core barrier growth
}

// Opteron6300x32 returns the paper's 32-core machine profile.
func Opteron6300x32() *MultiCPUModel {
	return &MultiCPUModel{
		CPU:                Opteron6300(),
		Cores:              32,
		FPUs:               16,
		SocketBandwidth:    48e9,
		DegradePerCore:     0.015,
		DegradeAfter:       24,
		ForkJoinBaseSec:    4e-6,
		ForkJoinPerCoreSec: 1.2e-6,
	}
}

// cacheLineBytes is the DRAM-traffic unit for scattered block accesses.
const cacheLineBytes = 64

// PhaseTime returns the modeled wall seconds for one phase executed as a
// fork-join parallel loop on the given core count.
func (m *MultiCPUModel) PhaseTime(tasks []Task, cores int) float64 {
	if cores < 1 {
		panic("gpusim: cores must be >= 1")
	}
	if cores > m.Cores {
		cores = m.Cores
	}
	if cores == 1 {
		return m.CPU.PhaseTime(tasks)
	}
	// Heaviest static chunk bounds compute time.
	var maxChunk float64
	var bytes float64
	for _, r := range sched.Chunks(len(tasks), cores) {
		var chunk float64
		for i := r.Lo; i < r.Hi; i++ {
			chunk += m.CPU.TaskCycles(tasks[i])
			bytes += tasks[i].ContigWords*bytesPerWord + tasks[i].ScatterAccesses*cacheLineBytes
		}
		if chunk > maxChunk {
			maxChunk = chunk
		}
	}
	// Module-shared FPUs: beyond m.FPUs threads, each pair contends.
	share := 1.0
	if cores > m.FPUs {
		share = float64(cores) / float64(m.FPUs)
		if share > 2 {
			share = 2
		}
	}
	compute := maxChunk * share / m.CPU.ClockHz

	bw := m.SocketBandwidth
	if over := cores - m.DegradeAfter; over > 0 {
		f := 1 - m.DegradePerCore*float64(over)
		if f < 0.5 {
			f = 0.5
		}
		bw *= f
	}
	mem := bytes / bw

	t := compute
	if mem > t {
		t = mem
	}
	return t + m.ForkJoinBaseSec + m.ForkJoinPerCoreSec*float64(cores)
}

// IterationTime sums the five phase times for one full iteration.
func (m *MultiCPUModel) IterationTime(tasks [admm.NumPhases][]Task, cores int) float64 {
	var total float64
	for p := 0; p < int(admm.NumPhases); p++ {
		total += m.PhaseTime(tasks[p], cores)
	}
	return total
}

// CompareMultiCPU computes modeled multi-core speedup over the serial
// model for one iteration on g — the measurement behind Figures 8, 11
// and 14.
func CompareMultiCPU(g *graph.Graph, model *MultiCPUModel, cores int) Speedups {
	if model == nil {
		model = Opteron6300x32()
	}
	tasks := IterationTasks(g)
	return compare(NewCPUBackend(model.CPU).prices(tasks), NewMultiCoreBackend(model, cores).prices(tasks))
}
