package gpusim

import (
	"fmt"

	"repro/internal/admm"
	"repro/internal/graph"
)

// MultiDevice models the paper's future-work item 3 — "extend the code
// to allow the use of multiple GPUs and multiple computers" — as a
// simulation: function nodes (with their edges) are partitioned across
// homogeneous devices; variables whose edges span devices become
// boundary variables whose m-messages must cross the interconnect every
// iteration (and whose consensus z must be broadcast back).
//
// Per iteration, each device runs its shard of the five kernels; the
// iteration finishes at max(device times) plus the boundary exchange
// (all-to-all over a PCIe-peer-like link). The result exposes the
// decomposition trade-off the paper's Conclusion hints at: chain-like
// graphs (MPC) split with a handful of boundary variables and scale
// almost linearly, while dense graphs (packing's all-pairs collisions)
// ship most of their edge state every iteration and scale poorly.
type MultiDevice struct {
	Device         *Device
	Count          int
	LinkBandwidth  float64 // bytes/s per direction, device to device
	LinkLatencySec float64 // per-iteration synchronization latency
	// Overlap prices the exchange the way the sharded executor's
	// message transport runs it: boundary frames leave before the
	// interior compute starts, so the link term hides behind the x- and
	// z-phase work on interior edges and only the uncovered remainder
	// extends the iteration. IterationTime's exchange component then
	// reports just that exposed remainder.
	Overlap bool
}

// NewMultiDevice returns a multi-device simulator with count devices of
// the given profile (nil = Tesla K40) over a 10 GB/s, 10 us link.
func NewMultiDevice(dev *Device, count int) (*MultiDevice, error) {
	if count < 1 {
		return nil, fmt.Errorf("gpusim: device count %d", count)
	}
	if dev == nil {
		dev = TeslaK40()
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &MultiDevice{
		Device:         dev,
		Count:          count,
		LinkBandwidth:  10e9,
		LinkLatencySec: 10e-6,
	}, nil
}

// Partition describes a function-node split across devices. The
// partitioning heuristics and boundary analysis live in internal/graph
// (graph.NewPartition) so the real sharded executor (internal/shard) and
// this cost simulator always describe the same split; this type is the
// simulator-facing view.
type Partition struct {
	// FuncDevice maps function node -> device.
	FuncDevice []int
	// BoundaryVars lists variable nodes with edges on 2+ devices.
	BoundaryVars []int
	// BoundaryEdges counts edges incident to boundary variables.
	BoundaryEdges int
	// CutWords is the degree-weighted cut cost (graph.CutCost): the
	// doubles actually crossing the interconnect per iteration (remote
	// m-block gathers plus z broadcasts, weighted by the per-edge
	// vector dimension). Zero means unknown (a hand-built partition);
	// IterationTime then falls back to the raw boundary-edge model,
	// which overestimates chatty-but-thin boundaries.
	CutWords float64
}

// fromGraphPartition adapts the shared analysis to the simulator view,
// pricing the boundary with the same degree-weighted cost model the
// sharded executor reports.
func fromGraphPartition(g *graph.Graph, p graph.Partition) Partition {
	return Partition{
		FuncDevice:    p.FuncPart,
		BoundaryVars:  p.BoundaryVars,
		BoundaryEdges: p.BoundaryEdges,
		CutWords:      graph.CutCost(g, &p),
	}
}

// ExchangeWords returns the doubles one iteration's boundary exchange
// ships across the interconnect under this partition: CutWords when the
// shared analysis priced it (graph.CutCost), else the raw
// 2-transfers-per-boundary-edge fallback for hand-built partitions.
// Multiplied by 8 this is the prediction the real message transport is
// held to: internal/shard's sockets transport reports measured payload
// bytes per iteration (shard.Stats.BytesPerIter) priced by the same
// word model, so simulated link traffic and measured wire traffic are
// directly comparable.
func (p Partition) ExchangeWords(g *graph.Graph) float64 {
	if p.CutWords != 0 {
		return p.CutWords
	}
	return float64(2 * p.BoundaryEdges * g.D())
}

// ExchangeBytesPerIter returns ExchangeWords in bytes — the number to
// put next to a measured shard.Stats.BytesPerIter.
func (p Partition) ExchangeBytesPerIter(g *graph.Graph) float64 {
	return bytesPerWord * p.ExchangeWords(g)
}

// PartitionByVariable is the sharded executor's split
// (graph.StrategyBalanced): functions listed by their least-degree
// variable and cut at equal modelled work. A K-step MPC chain crosses
// devices at only count-1 time steps.
func PartitionByVariable(g *graph.Graph, devices int) Partition {
	p, err := graph.NewPartition(g, devices, graph.StrategyBalanced)
	if err != nil {
		panic(err)
	}
	return fromGraphPartition(g, p)
}

// IterationTime returns the simulated seconds for one full iteration on
// the partition, along with the pure-compute and exchange components.
func (m *MultiDevice) IterationTime(g *graph.Graph, p Partition) (total, compute, exchange float64) {
	if m.Count == 1 {
		b := NewBackend(m.Device)
		t := b.SimulatedIterationSec(g)
		return t, t, 0
	}
	// Shard tasks by device. Edge phases follow their function's device.
	tasks := IterationTasks(g)
	nF := g.NumFunctions()
	edgeDev := make([]int, g.NumEdges())
	for a := 0; a < nF; a++ {
		lo, hi := g.FuncEdges(a)
		for e := lo; e < hi; e++ {
			edgeDev[e] = p.FuncDevice[a]
		}
	}
	// z tasks: assign each variable to the device owning most of its
	// edges (simple majority placement).
	varDev := make([]int, g.NumVariables())
	counts := make([]int, m.Count)
	for v := range varDev {
		for i := range counts {
			counts[i] = 0
		}
		best, bestC := 0, -1
		for _, e := range g.VarEdges(v) {
			d := edgeDev[e]
			counts[d]++
			if counts[d] > bestC {
				best, bestC = d, counts[d]
			}
		}
		varDev[v] = best
	}

	shard := func(phase admm.Phase, owner func(i int) int) float64 {
		perDev := make([][]Task, m.Count)
		for i, task := range tasks[phase] {
			d := owner(i)
			perDev[d] = append(perDev[d], task)
		}
		var worst float64
		for _, ts := range perDev {
			t := m.Device.KernelTime(ts, LaunchConfig{Ntb: DefaultNtb})
			if t > worst {
				worst = t
			}
		}
		return worst
	}
	xT := shard(admm.PhaseX, func(a int) int { return p.FuncDevice[a] })
	zT := shard(admm.PhaseZ, func(v int) int { return varDev[v] })
	compute += xT
	compute += shard(admm.PhaseM, func(e int) int { return edgeDev[e] })
	compute += zT
	compute += shard(admm.PhaseU, func(e int) int { return edgeDev[e] })
	compute += shard(admm.PhaseN, func(e int) int { return edgeDev[e] })

	// Exchange: boundary variables gather remote m-blocks and the
	// owners broadcast z back, priced by the shared word model
	// (ExchangeWords — graph.CutCost when available).
	exchange = m.LinkLatencySec + p.ExchangeBytesPerIter(g)/m.LinkBandwidth
	if m.Overlap && g.NumEdges() > 0 {
		// Frames fly while the interior share of the x and z phases
		// runs; only the exposed remainder of the link term serializes.
		interior := 1 - float64(p.BoundaryEdges)/float64(g.NumEdges())
		if window := interior * (xT + zT); window > 0 {
			if window >= exchange {
				exchange = 0
			} else {
				exchange -= window
			}
		}
	}
	return compute + exchange, compute, exchange
}

// Scaling reports the speedup of running g on 1..maxDevices devices
// relative to one device, with the boundary statistics per point.
type ScalingPoint struct {
	Devices       int
	Speedup       float64
	BoundaryVars  int
	BoundaryEdges int
	ExchangeShare float64 // fraction of iteration spent exchanging
}

// Scaling sweeps device counts using the locality-aware partition.
func Scaling(g *graph.Graph, dev *Device, counts []int) ([]ScalingPoint, error) {
	single, err := NewMultiDevice(dev, 1)
	if err != nil {
		return nil, err
	}
	base, _, _ := single.IterationTime(g, PartitionByVariable(g, 1))
	out := make([]ScalingPoint, 0, len(counts))
	for _, c := range counts {
		md, err := NewMultiDevice(dev, c)
		if err != nil {
			return nil, err
		}
		part := PartitionByVariable(g, c)
		total, _, exch := md.IterationTime(g, part)
		out = append(out, ScalingPoint{
			Devices:       c,
			Speedup:       base / total,
			BoundaryVars:  len(part.BoundaryVars),
			BoundaryEdges: part.BoundaryEdges,
			ExchangeShare: exch / total,
		})
	}
	return out, nil
}
