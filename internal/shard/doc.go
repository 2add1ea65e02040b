// Package shard implements the real sharded executor for the
// message-passing ADMM — the executable counterpart of the paper's
// future-work item 3 ("extend the code to allow the use of multiple
// GPUs and multiple computers"), whose cost model lives in
// internal/gpusim.MultiDevice. Both sides share the partitioning and
// boundary-variable analysis in internal/graph, so the simulator's
// predictions and this executor's measurements describe the same split.
//
// # Partitioning
//
// The factor graph's function nodes are split into K shards by one of
// four strategies (graph.NewPartition): "block" (contiguous function
// ranges — the naive baseline), "balanced" (the default: functions
// listed by their least-degree variable, which follows the problem's
// natural geometry, and cut at equal modelled work; a consensus star
// splits in creation order around its hub), "greedy-mincut" (streaming greedy placement that recovers locality
// when construction order is scrambled), and "mincut+fm" (the greedy
// placement polished by a Fiduccia–Mattheyses boundary-refinement pass
// minimizing the degree-weighted cut cost, graph.CutCost). The
// Backend.Refine knob (ExecutorSpec "refine") runs the same FM pass on
// top of any base strategy. docs/partitioning.md at the repo root has
// the full catalog, the cost model, and a measured cut/imbalance table
// per strategy. A shard owns its functions and
// their edges. Variables split into two classes:
//
//   - interior: every incident edge lives on one shard. That shard
//     computes the variable's z locally, with no synchronization.
//   - boundary: edges span 2+ shards. Only these variables' z-state
//     crosses shard boundaries; one shard holding some of a boundary
//     variable's edges — its owner — combines its z from the other
//     shards' m-blocks. Where boundary state is shipped the owner is
//     the shard with the majority of the edges (fewest bytes); on
//     shared memory the plan evens the shards' z-gather loads instead
//     (graph.Partition.GatherOwners). A hub every function touches is
//     just the widest case: one boundary variable, every shard a
//     contributor.
//
// # The boundary-only protocol, behind the Exchanger seam
//
// Each shard worker runs all five phases over its local edges; one
// iteration needs only two synchronization points instead of the five
// global fork-join joins of the barrier/parallel-for executors:
//
//	shard 0                 shard 1
//	x  over local functions x  over local functions      phase A
//	m  over local edges     m  over local edges          (no sync)
//	z  over interior vars   z  over interior vars
//	═════════ GatherM: boundary m-contributions available ══════
//	z over owned boundary vars, gathering m in CSR order phase B
//	═════════ ScatterZ: boundary z-blocks available ════════════
//	u  over local edges     u  over local edges          phase C
//	n  over local edges     n  over local edges          (no sync)
//	            ... next iteration's phase A ...
//
// The two crossings are an exchange.Exchanger (internal/exchange), the
// transport seam this executor is structured around:
//
//   - exchange.Local (ExecutorSpec transport "local", the default) is
//     the shared-memory form: both crossings are one spin-then-park
//     barrier. On the fused schedule each shard posts the m-blocks of
//     its boundary edges into the owner's packed row before the first
//     crossing (exchange.Mailbox) — the only boundary state another
//     shard ever reads.
//   - exchange.Messaged (transport "sockets") moves exactly the
//     boundary state as length-prefixed frames on per-peer byte
//     streams — in-process loopback streams by default, or real
//     sockets when ExecutorSpec.Addrs names paradmm-shardworker
//     processes, in which case Remote (remote.go) coordinates one
//     worker process per shard and this package's ServeWorker
//     (worker.go) runs the far side. docs/transport.md documents the
//     frame protocol, handshake, manifests, and failure semantics;
//     Stats.BytesPerIter prices the measured traffic with the same
//     graph.CutCost word model the partitioner refines.
//
// Phase C and the next iteration's phase A touch only shard-local
// state plus z delivered by ScatterZ, so a shard racing ahead blocks
// in the next GatherM before it can disturb a slower shard. Because
// interior z is computed by exactly the serial kernel and boundary z
// gathers m-blocks in the same CSR order the serial z-update uses —
// on this reference schedule from M, into which the messaged
// transports copy received blocks at canonical edge indices — every
// strategy, owner rule and transport produces bit-identical iterates
// to the Serial reference; the cross-executor conformance suite and
// the cross-process integration test pin this.
//
// # Sync-wait accounting
//
// Every worker times its own two sync points — in-process workers
// around the Exchanger calls, worker processes the same way, reported
// in each block's Done frame — and Stats.SyncWaitByShard carries the
// whole vector. It has to: the shard the others wait for is the one
// that reports the least wait, so a single shard's figure
// (Stats.SyncWaitNanos is shard 0's, kept for its readers) says little
// about what synchronization costs the solve. paradmm-solve prints the
// min / median / max share of the solve per shard; the serving layer's
// paradmm_shard_sync_wait_nanos_total follows the longest-waiting
// shard. In-process waits follow one policy (exchange.Local's barrier
// and the loopback pipes alike): yield-spin for about the cost of a
// futex sleep/wake, then park. Phase times and BoundaryZNanos remain
// worker 0's — one shard's share of the combine, so
// Stats.BoundaryVarsByShard says how many boundary variables each shard
// combines and paradmm-solve prints it next to the figure.
//
// # Fault tolerance
//
// Cross-process sessions run under deadlines (dial, handshake, and
// optional per-frame bounds — ExecutorSpec's *_timeout_ms knobs) with
// a retried dial+handshake budget, and every transport failure carries
// a *WorkerError attributing worker, endpoint, and protocol phase.
// ProbeWorkers speaks the Ping/Pong health frames the worker's accept
// loop answers even mid-session, and SolveWithFailover (failover.go)
// turns fail-stop workers into a policy decision: probe the pool,
// re-partition onto the survivors, re-run cold — or finish on the
// local fused executor. Because every shard count is bit-identical to
// Serial, recovery changes availability, never the answer.
// docs/fault-tolerance.md has the full contract and the
// fault-injection tests (internal/faultnet) that pin it.
//
// # The fused schedule
//
// With Backend.Fused (the ExecutorSpec default), each phase runs its
// fused form — the sync structure is unchanged, still two crossings:
//
//	A (local):    x over owned functions;
//	              fused z over interior vars (m = x + u in registers);
//	              post: m = x + u of every owned edge on a remotely
//	              owned boundary variable, into the owner's packed row
//	-- GatherM --    (every row into this shard's inbox is this
//	                  iteration's: written in place by its sender on
//	                  shared memory, decoded from the sender's frame on
//	                  a message transport)
//	B (boundary): z for owned boundary vars (exchange.Mailbox.Combine):
//	              each variable's edges in CSR order, a remote edge's
//	              block from the inbox, a local edge's as x + u in
//	              registers
//	-- ScatterZ --   (all z-blocks published)
//	C (local):    fused u+n sweep over owned edges
//
// The m-array write and one of the two edge sweeps disappear (m/u/n
// phases paid ~88d bytes of edge traffic per iteration on the reference
// schedule, ~56d fused; see internal/admm/fused.go for the model), and
// one combine kernel serves the local transport, the loopback, the
// overlapped schedule and the worker process. The correctness argument
// is the reference schedule's with the packed row standing in for M:
// a posted block is x + u rounded once, which is bit for bit the
// reference m-block; the post follows the shard's own x-update and its
// previous phase C in program order, and nothing between the post and
// the combine writes X, U or the row, so the combiner meets exactly the
// values the reference m-blocks would have frozen, in the same CSR
// order. Phase B reads no other shard's X or U at all — each shard's
// edge state is written and read by one core only, and the row is
// written once and read once per iteration, ordered by the two sync
// points (the race job runs the suite under the detector).
// TestCombineReadsNoRemoteEdgeState poisons every remote X and U before
// the combine and still gets Serial's z. Fused iterates therefore stay
// bit-identical across all strategies, shard counts, owner rules and
// transports.
//
// # When sharded beats barrier workers
//
// BarrierBackend pays 5 global barriers per iteration regardless of
// graph shape. This executor pays 2 sync points plus a boundary-z
// combine whose cost is proportional to the boundary-edge count. On
// chain-structured graphs (MPC: a K-step chain splits with K-1 cut
// points under the balanced strategy) the combine is a few variables
// and sharded wins on synchronization count alone. On dense graphs
// (packing's all-pairs collision nodes make nearly every variable
// boundary) phase B is a global z-update — the scaling cliff the
// paper's Conclusion predicts — and what it costs depends on what
// crosses cores for it. Gathering remote x + u in place made every
// boundary edge's X and U line bounce between its writer and the
// combiner each iteration, and the majority rule left one shard
// combining nearly all of it: 2 shards lost to serial (the benchmark's
// packing-wide workload read admm.speedup2 0.77–0.91). With packed rows
// and evened z-gather loads the same workload runs about 1.2x serial on
// shared memory; over the loopback wire, where every boundary block is
// framed and copied, it still loses (admm.speedup2_sock below 1) — the
// cliff is a property of the bytes shipped, measurable here instead of
// only simulated by gpusim.Scaling.
package shard
