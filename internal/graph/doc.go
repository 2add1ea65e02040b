// Package graph implements the bipartite factor-graph that the
// message-passing ADMM (paper Algorithm 2) runs on, plus the
// partitioning layer the multi-device executors and simulators share.
//
// # The factor graph
//
// A factor-graph G = (F, V, E) has function nodes F (each carrying a
// proximal operator), variable nodes V, and edges E. Each edge (a, b)
// carries four auxiliary ADMM variables x, m, u, n (D doubles each) and
// two scalar parameters rho and alpha; each variable node b carries one
// consensus variable z_b (D doubles).
//
// The memory layout deliberately mirrors the paper's parADMM C engine:
// all edge state lives in flat []float64 arrays in edge-creation order
// (X, M, U, N), and Z is variable-major in variable-creation order. This
// struct-of-arrays layout is what the GPU simulator's coalescing model
// reasons about, and is also what makes the shared-memory executors
// false-sharing-friendly: each update phase writes exactly one array,
// in disjoint contiguous runs per task.
//
// # The partitioning layer
//
// NewPartition splits the function nodes (and their edges) across K
// shards with the one balanced split (StrategyBalanced) and derives
// the boundary analysis every multi-device consumer needs: which
// variables span shards (only their consensus z crosses shard
// boundaries each iteration), and which shard owns each one. The same
// Partition drives the real sharded executor (internal/shard) and the
// multi-device cost simulator (internal/gpusim.MultiDevice), so
// predictions and measurements always describe the same split. It
// lists functions by their least-degree variable (so the builder's
// geometry orders them and a shared hub does not) and cuts the list at
// equal modelled work — Op.Work for the x-update plus the per-edge
// sweep words — in O(|F| + |E| + |V|).
//
// Partition quality is measured by CutCost, the degree-weighted cut
// cost: the cross-shard traffic of one iteration in doubles (remote
// m-block gathers plus z broadcasts, weighted by the per-edge vector
// dimension D) rather than a raw cut-edge count. Partition.Refine is a
// Fiduccia–Mattheyses-style pass that sweeps boundary function nodes
// through a gain-bucket structure to shrink that cost under a balance
// constraint. No product path runs it: the benchmark's graph.refine_ms
// probe is its one caller.
//
// Invariants (checked by Partition.Validate, fuzzed by
// FuzzPartitionInvariants): every function node sits on exactly one
// in-range shard; the shard count never exceeds the function-node
// count (NewPartition clamps, so no shard is structurally empty); each
// variable's owner holds at least one of its edges; and the boundary
// set equals a brute-force recomputation. Refine additionally
// guarantees the cut cost never increases, the balance bound holds,
// and no shard is emptied.
//
// The one split, the measurements that retired the others, the cost
// model, the FM invariants, and a worked cut example live in
// docs/partitioning.md at the repo root.
package graph
