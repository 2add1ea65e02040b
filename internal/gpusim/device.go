package gpusim

import (
	"fmt"
	"math"
)

// Task is one graph-element update: the unit a single GPU thread (or one
// serial-CPU loop iteration) executes.
type Task struct {
	// Flops is the floating-point operation count.
	Flops float64
	// ContigWords counts 8-byte words the thread streams through in
	// per-task contiguous runs that are also consecutive across adjacent
	// tasks (the edge-major X/M/U/N layout), so a warp's accesses
	// coalesce into few transactions.
	ContigWords float64
	// ScatterAccesses counts independent random-address block accesses
	// (a z-block read through edgeVar, an m-block gather through the
	// variable CSR); each touches its own 128-byte transaction.
	ScatterAccesses float64
	// Branchy in [0,1] scales the warp-divergence penalty.
	Branchy float64
	// SerialFrac in [0,1] is the fraction of flops on a dependent chain
	// (sqrt/div/solve latency a lane cannot pipeline); 0 for streaming
	// loops like the m/z/u/n updates.
	SerialFrac float64
}

// Device models a CUDA-capable GPU. All cost parameters are in cycles
// unless stated otherwise.
type Device struct {
	Name string

	SMs             int     // streaming multiprocessors
	CoresPerSM      int     // CUDA cores per SM
	WarpSize        int     // threads per warp (32)
	MaxThreadsPerSM int     // resident-thread cap per SM
	MaxBlocksPerSM  int     // resident-block cap per SM
	ClockHz         float64 // SM clock
	MemBandwidth    float64 // global memory bandwidth, bytes/s

	// Cost model.
	CyclesPerFlop       float64 // per-lane cycles per pipelined (streaming) flop
	ChainCyclesPerFlop  float64 // per-lane cycles per dependent-chain flop (DP sqrt/div latency)
	TransIssueCycles    float64 // per coalesced 128B transaction at an SM
	ScatterIssueCycles  float64 // per scattered transaction (poor MLP, TLB pressure)
	BlockOverheadCycles float64 // block scheduling/dispatch cost
	DivergencePenalty   float64 // scales the branchy*imbalance serialization cost
	ComputeOverlap      float64 // concurrent dependent chains an SM can interleave
	KernelLaunchSec     float64 // fixed host-side launch cost per kernel

	// Transfer model (paper: copyGraphFromCPUtoGPU and the z copy-back).
	TransferBandwidth float64 // effective PCIe bytes/s
	PerFunctionSec    float64 // host-side build cost per function node
	PerEdgeSec        float64 // host-side build cost per edge
	TransferFixedSec  float64 // per-transfer fixed cost
}

// TeslaK40 returns a device profile shaped like the paper's NVIDIA Tesla
// K40: 15 SMs x 192 cores at 745 MHz, 288 GB/s, warp 32. The cost-model
// constants are calibrated so the three application domains land in the
// paper's reported speedup bands: `paradmm-bench fig7 fig10 fig13`
// prints them, and internal/bench/testdata/simulated.golden pins them.
func TeslaK40() *Device {
	return &Device{
		Name:            "tesla-k40-sim",
		SMs:             15,
		CoresPerSM:      192,
		WarpSize:        32,
		MaxThreadsPerSM: 2048,
		MaxBlocksPerSM:  16,
		ClockHz:         745e6,
		MemBandwidth:    288e9,

		CyclesPerFlop:       1,
		ChainCyclesPerFlop:  25,
		TransIssueCycles:    4,
		ScatterIssueCycles:  6,
		BlockOverheadCycles: 150,
		DivergencePenalty:   3.0,
		ComputeOverlap:      2,
		KernelLaunchSec:     6e-6,

		TransferBandwidth: 6e9,
		PerFunctionSec:    2.0e-6,
		PerEdgeSec:        8.0e-6,
		TransferFixedSec:  30e-6,
	}
}

// TitanXLike returns a profile shaped like NVIDIA's GeForce GTX TITAN X
// (24 SMs x 128 cores at ~1 GHz, 336 GB/s), one of the cards the paper's
// future-work section proposes testing; used by the hardware-sensitivity
// extension bench.
func TitanXLike() *Device {
	d := TeslaK40()
	d.Name = "titan-x-sim"
	d.SMs = 24
	d.CoresPerSM = 128
	d.ClockHz = 1.0e9
	d.MemBandwidth = 336e9
	d.MaxBlocksPerSM = 32
	return d
}

// Validate checks the profile for usable values.
func (d *Device) Validate() error {
	switch {
	case d.SMs <= 0 || d.CoresPerSM <= 0 || d.WarpSize <= 0:
		return fmt.Errorf("gpusim: bad core geometry %d/%d/%d", d.SMs, d.CoresPerSM, d.WarpSize)
	case d.MaxThreadsPerSM < d.WarpSize || d.MaxBlocksPerSM <= 0:
		return fmt.Errorf("gpusim: bad residency limits")
	case d.ClockHz <= 0 || d.MemBandwidth <= 0:
		return fmt.Errorf("gpusim: bad clock/bandwidth")
	case d.CyclesPerFlop <= 0 || d.ChainCyclesPerFlop < d.CyclesPerFlop:
		return fmt.Errorf("gpusim: bad flop cost constants")
	case d.TransIssueCycles < 0 || d.ScatterIssueCycles < 0 || d.ComputeOverlap < 1:
		return fmt.Errorf("gpusim: bad memory/overlap constants")
	}
	return nil
}

const (
	bytesPerWord        = 8
	wordsPerTransaction = 16 // 128-byte transactions
)

// LaunchConfig describes a kernel launch: ntb threads per block over n
// tasks (the paper's <<<nb, ntb>>> with nb = ceil(n/ntb)).
type LaunchConfig struct {
	Ntb int
}

// Blocks returns nb for n tasks.
func (c LaunchConfig) Blocks(n int) int {
	if c.Ntb <= 0 {
		panic("gpusim: ntb must be positive")
	}
	return (n + c.Ntb - 1) / c.Ntb
}

// KernelTime simulates one kernel launch over tasks with the given
// config and returns simulated seconds. The simulation is deterministic.
//
// Per warp it computes a compute cost (lockstep on the slowest lane; a
// dependent-chain surcharge for serial flops; a divergence surcharge for
// branchy, imbalanced lanes) and a memory cost (coalesced 128-byte
// transactions for contiguous words, one expensive transaction per
// scattered block access). Per SM, compute chains overlap only
// ComputeOverlap-way (irregular double-precision code cannot fill a
// Kepler SM), while memory issue pipelines fully; the kernel additionally
// cannot beat the device-wide DRAM bandwidth floor or the fixed launch
// overhead. Block dispatch costs BlockOverheadCycles amortized over the
// resident slots, which is what makes degenerate 1-thread blocks (the
// paper's ntb=1 row) mildly but visibly slower, and an undersubscribed
// grid (few blocks on many SMs) is penalized by the max over SMs — the
// mechanism behind the paper's small optimal ntb for the MPC z-update.
func (d *Device) KernelTime(tasks []Task, cfg LaunchConfig) float64 {
	n := len(tasks)
	if n == 0 {
		return d.KernelLaunchSec
	}
	ntb := cfg.Ntb
	if ntb <= 0 {
		panic("gpusim: ntb must be positive")
	}
	nb := cfg.Blocks(n)

	// Residency: how many blocks fit on one SM at once.
	slots := d.MaxBlocksPerSM
	if byThreads := d.MaxThreadsPerSM / ntb; byThreads < slots {
		slots = byThreads
	}
	if slots < 1 {
		slots = 1
	}

	smCompute := make([]float64, d.SMs)
	smMem := make([]float64, d.SMs)
	smOther := make([]float64, d.SMs)
	var totalTransactions float64

	for b := 0; b < nb; b++ {
		lo := b * ntb
		hi := lo + ntb
		if hi > n {
			hi = n
		}
		var blockCompute, blockContig, blockScatter float64
		for wlo := lo; wlo < hi; wlo += d.WarpSize {
			whi := wlo + d.WarpSize
			if whi > hi {
				whi = hi
			}
			var maxFlops, sumFlops, branchy, serial float64
			var contig, scatter float64
			for t := wlo; t < whi; t++ {
				task := tasks[t]
				if task.Flops > maxFlops {
					maxFlops = task.Flops
				}
				sumFlops += task.Flops
				if task.Branchy > branchy {
					branchy = task.Branchy
				}
				if task.SerialFrac > serial {
					serial = task.SerialFrac
				}
				contig += task.ContigWords
				scatter += task.ScatterAccesses
			}
			lanes := float64(whi - wlo)
			meanFlops := sumFlops / lanes
			// Lockstep: the warp runs at its slowest lane. Dependent
			// chains pay latency per flop; divergence serializes the
			// branchy paths, more so when lanes are imbalanced.
			spread := 0.0
			if meanFlops > 0 {
				spread = maxFlops/meanFlops - 1
				if spread > 4 {
					spread = 4
				}
			}
			perFlop := d.CyclesPerFlop + serial*(d.ChainCyclesPerFlop-d.CyclesPerFlop)
			wCompute := maxFlops * perFlop * (1 + d.DivergencePenalty*branchy*(1+spread)/2)
			blockCompute += wCompute
			blockContig += math.Ceil(contig / wordsPerTransaction)
			blockScatter += scatter
		}
		sm := b % d.SMs
		smCompute[sm] += blockCompute / d.ComputeOverlap
		smMem[sm] += blockContig*d.TransIssueCycles + blockScatter*d.ScatterIssueCycles
		smOther[sm] += d.BlockOverheadCycles / float64(slots)
		totalTransactions += blockContig + blockScatter
	}

	var maxSM float64
	for s := 0; s < d.SMs; s++ {
		c := smCompute[s]
		if smMem[s] > c {
			c = smMem[s]
		}
		c += smOther[s]
		if c > maxSM {
			maxSM = c
		}
	}
	timeCompute := maxSM / d.ClockHz
	timeBandwidth := totalTransactions * wordsPerTransaction * bytesPerWord / d.MemBandwidth
	t := timeCompute
	if timeBandwidth > t {
		t = timeBandwidth
	}
	return t + d.KernelLaunchSec
}

// CopyToDeviceSec models building the factor-graph image and copying it
// to GPU global memory (paper: addNode loop + copyGraphFromCPUtoGPU;
// e.g. ~450 s for the N=5000 packing graph). funcs/edges are node and
// edge counts; bytes is the image size (graph.EncodedSize).
func (d *Device) CopyToDeviceSec(funcs, edges, bytes int) float64 {
	return d.TransferFixedSec +
		float64(funcs)*d.PerFunctionSec +
		float64(edges)*d.PerEdgeSec +
		float64(bytes)/d.TransferBandwidth
}

// CopyZBackSec models copying the solution z back to the host (paper:
// 0.3 ms for N=5000 packing), which is negligible next to iteration time.
func (d *Device) CopyZBackSec(zBytes int) float64 {
	return d.TransferFixedSec + float64(zBytes)/d.TransferBandwidth
}
