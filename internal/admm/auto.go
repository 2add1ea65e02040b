package admm

import (
	"runtime"

	"repro/internal/graph"
)

// Executor auto-selection (ROADMAP: "Executor auto-selection"):
// ExecutorSpec{Kind: "auto"} resolves to a concrete CPU executor from
// the finalized graph, so serving-layer clients need not know the
// executor menu. The policy:
//
//   - one usable core: parallel executors only add synchronization, so
//     everything resolves to serial;
//   - small graphs: a sharded solve pays two barriers per iteration,
//     which dominates below ~AutoShardMinEdges edges (sharded-N
//     trailed serial on every small graph it was swept on), so they
//     stay serial;
//   - otherwise the decision is made on *predicted cut cost* instead of
//     a density proxy: the balanced partition the sharded backend will
//     build is computed, a split with a degenerate load balance is
//     refused (AutoMaxImbalance), and its graph.CutCost is compared
//     against the serial threshold. If the partition would ship more
//     than AutoMaxCutShare of the per-iteration edge state across
//     shards every iteration (packing's all-pairs cliff, lasso/svm's
//     consensus star), the graph stays serial.
//
// Serial and sharded are the only kinds a spec can name, so they are
// the only answers: measured on the 2-vCPU reference box, the fork-join
// loops of ParallelForBackend beat neither on any graph auto used to
// hand them, nor on any benchmark shape (tables in ROADMAP's predictor
// item).
//
// Every branch resolves to the fused schedule; Validate rejects
// fused: false on an auto spec (the reference schedule is serial's).
const (
	// AutoShardMinEdges is the smallest edge count for which a sharded
	// solve can amortize its per-iteration barrier crossings.
	AutoShardMinEdges = 20000
	// AutoMaxCutShare is the serial threshold on predicted boundary
	// traffic: the balanced partition's degree-weighted cut cost
	// (graph.CutCost, words per iteration) divided by the graph's
	// per-iteration edge-state words (Edges * D). Above it, phase B
	// degenerates toward a replicated global z-update and sharding
	// stops paying.
	AutoMaxCutShare = 0.25
	// AutoMaxShards caps the resolved shard count; beyond shared-LLC
	// core groups more shards only grow the boundary set.
	AutoMaxShards = 4
	// AutoMaxImbalance refuses a partition whose largest shard holds
	// more than this multiple of the mean shard load
	// (graph.Partition.LoadImbalance). Cut cost alone cannot see a
	// degenerate split — a graph with fewer functions than it needs to
	// fill the shards evenly (a five-function star at four shards) has
	// no balanced split at all — so a partition must be cheap on BOTH
	// axes to shard.
	AutoMaxImbalance = 1.5
)

// ResolveAuto maps an auto spec to a concrete executor spec for g using
// the policy above. It is exported so callers (serving layer, tests) can
// inspect the decision without building a backend. Specs whose Kind is
// not ExecAuto are returned unchanged.
func (s ExecutorSpec) ResolveAuto(g *graph.Graph) ExecutorSpec {
	_, shardedLinked := executorFactories[ExecSharded]
	return s.resolveAuto(g, runtime.GOMAXPROCS(0), shardedLinked)
}

// resolveAuto is ResolveAuto with the core count and shard-executor
// availability injected for tests.
func (s ExecutorSpec) resolveAuto(g *graph.Graph, procs int, shardedLinked bool) ExecutorSpec {
	if s.Kind != ExecAuto {
		return s
	}
	out := ExecutorSpec{Kind: ExecSerial}
	// A binary that never imported internal/shard has nothing but
	// serial to resolve to; auto's contract is "clients need not know
	// the executor menu", so it degrades instead of erroring.
	if procs <= 1 || !shardedLinked {
		return out
	}
	if g.NumEdges() < AutoShardMinEdges {
		return out
	}
	shards := procs
	if shards > AutoMaxShards {
		shards = AutoMaxShards
	}
	if _, ok := ShardingPays(g, shards); !ok {
		return out
	}
	out.Kind = ExecSharded
	out.Shards = shards
	return out
}

// ShardingPays reports whether the partition a sharded solve of g at
// the given shard count runs on is worth sharding: refused when its load
// imbalance exceeds AutoMaxImbalance, or when its degree-weighted cut
// cost (graph.CutCost) exceeds AutoMaxCutShare of the graph's
// per-iteration edge-state words (Edges * D). share is that cut cost
// over Edges * D, and 0 for a split refused on its imbalance. The auto
// policy and the fleet admission planner both decide on it, so they
// agree on when sharding pays. The sharded backend recomputes the
// partition when the resolved spec is built; partitioning is O(E) and a
// solve runs thousands of O(E) iterations, so the duplicate work is
// noise.
func ShardingPays(g *graph.Graph, shards int) (share float64, ok bool) {
	p, err := graph.NewPartition(g, shards, graph.StrategyBalanced)
	if err != nil || p.LoadImbalance(g) > AutoMaxImbalance {
		return 0, false
	}
	st := g.Stats()
	words := float64(st.Edges * st.D)
	cut := graph.CutCost(g, &p)
	return cut / words, cut <= AutoMaxCutShare*words
}
