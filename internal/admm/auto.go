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
//     a density proxy: both refined partition candidates are computed —
//     balanced+FM (wins on geometric graphs: chains, grids) and
//     mincut+FM (wins when construction order scrambles the geometry)
//     — candidates with a degenerate load balance are dropped
//     (AutoMaxImbalance), and the cheaper survivor, by graph.CutCost,
//     is compared against the serial threshold. If even the best
//     refined partition would ship more than AutoMaxCutShare of the
//     per-iteration edge state across shards every iteration (packing's
//     all-pairs cliff, lasso/svm's consensus star), the graph stays
//     serial.
//
// auto never resolves to parallel-for: measured on the 2-vCPU reference
// box, fork-join loops beat neither serial nor sharded-2 on any graph
// auto used to hand them (table in ROADMAP's predictor item). The kind
// stays explicitly requestable.
//
// Every branch resolves to the fused schedule; Validate rejects
// fused: false on an auto spec (the reference schedule is serial's).
const (
	// AutoShardMinEdges is the smallest edge count for which a sharded
	// solve can amortize its per-iteration barrier crossings.
	AutoShardMinEdges = 20000
	// AutoMaxCutShare is the serial threshold on predicted boundary
	// traffic: the refined partition's degree-weighted cut cost
	// (graph.CutCost, words per iteration) divided by the graph's
	// per-iteration edge-state words (Edges * D). Above it, phase B
	// degenerates toward a replicated global z-update and sharding
	// stops paying.
	AutoMaxCutShare = 0.25
	// AutoMaxShards caps the resolved shard count; beyond shared-LLC
	// core groups more shards only grow the boundary set.
	AutoMaxShards = 4
	// AutoMaxImbalance disqualifies partition candidates whose largest
	// shard holds more than this multiple of the mean shard load
	// (graph.Partition.LoadImbalance). Cut cost alone cannot see a split
	// that bought its cut with balance — the refinement pass may pile
	// functions onto one shard within its slack, and a graph with fewer
	// functions than it needs to fill the shards evenly (a five-function
	// star at four shards) has no balanced split at all — so a candidate
	// must be cheap on BOTH axes to win.
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
	st := g.Stats()
	if st.Edges < AutoShardMinEdges {
		return out
	}
	shards := procs
	if shards > AutoMaxShards {
		shards = AutoMaxShards
	}
	strategy, cut, ok := bestRefinedPartition(g, shards)
	if !ok || cut > AutoMaxCutShare*float64(st.Edges*st.D) {
		return out
	}
	out.Kind = ExecSharded
	out.Shards = shards
	out.Partition = string(strategy)
	if strategy != graph.StrategyMincutFM {
		out.Refine = true
	}
	return out
}

// BestRefinedPartition exposes the auto policy's partition-candidate
// evaluation: the winning refined strategy and its degree-weighted cut
// cost for g at the given shard count (ok=false when no candidate has
// an acceptable load balance). The fleet admission planner uses it to
// predict a request's exchange share before leasing remote workers —
// the same model auto uses to decide sharding pays at all.
func BestRefinedPartition(g *graph.Graph, shards int) (graph.PartitionStrategy, float64, bool) {
	return bestRefinedPartition(g, shards)
}

// bestRefinedPartition evaluates the two refined candidates —
// balanced+FM and mincut+FM — drops any whose load imbalance exceeds
// AutoMaxImbalance, and returns the survivor with the lower
// degree-weighted cut cost (ties to the balanced split, whose boundary
// is geometric and stays small as the graph grows). The candidate
// partitions are recomputed by the sharded backend when the resolved
// spec is built; partitioning is O(E) and a solve runs thousands of
// O(E) iterations, so the duplicate work is noise.
func bestRefinedPartition(g *graph.Graph, shards int) (graph.PartitionStrategy, float64, bool) {
	bestCut, best, found := 0.0, graph.PartitionStrategy(""), false
	for _, strategy := range []graph.PartitionStrategy{graph.StrategyBalanced, graph.StrategyMincutFM} {
		p, err := graph.NewPartition(g, shards, strategy)
		if err != nil {
			return "", 0, false
		}
		if strategy != graph.StrategyMincutFM {
			p.Refine(g)
		}
		if p.LoadImbalance(g) > AutoMaxImbalance {
			continue
		}
		if cut := graph.CutCost(g, &p); !found || cut < bestCut {
			bestCut, best, found = cut, strategy, true
		}
	}
	return best, bestCut, found
}
