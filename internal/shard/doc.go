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
// The factor graph's function nodes are split into K shards by the
// balanced split (graph.NewPartition): functions listed by their
// least-degree variable, which follows the problem's natural geometry,
// and cut at equal modelled work; a consensus star splits in creation
// order around its hub. docs/partitioning.md at the repo root has the
// cost model (graph.CutCost) and the measurements that retired the
// other strategies. A shard owns its functions and
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
// Each shard worker runs the whole iteration over its local edges — on
// the fused two-pass kernels of internal/admm/fused.go, the one
// schedule every executor but the serial oracle runs — and one
// iteration needs only two synchronization points instead of a global
// join after every phase. There is one loop (runShardIters) for every
// transport and for the worker process; each sync point is split in a
// send half and a receive half so a transport with a wire can have
// frames in flight while the shard computes:
//
//	x over the functions feeding outbound rows   (plan: xBefore)
//	post: m = x + u of every owned edge on a remotely combined
//	      boundary variable, into the owner's packed row
//	-- BeginGatherM --   (rows depart)
//	x over the remaining functions               (plan: xAfter)
//	z over interior vars (m = x + u in registers)
//	══ FinishGatherM: every row into this shard's inbox is this
//	   iteration's — written in place by its sender on shared memory,
//	   decoded from the sender's frame on a message transport ══
//	z for owned boundary vars (exchange.Mailbox.Combine): each
//	   variable's edges in CSR order, a remote edge's block from the
//	   inbox, a local edge's as x + u in registers
//	-- BeginScatterZ --  (owned boundary z departs)
//	u+n sweep over edges whose z is local        (plan: unBefore)
//	══ FinishScatterZ: boundary z-blocks available ══
//	u+n sweep over edges whose z a peer combined (plan: unAfter)
//	            ... next iteration ...
//
// The schedule is data in the plan, chosen from the transport the plan
// is built for, not by an option. A message plan fills all four lists
// (frontier/rest functions, local-z/remote-z edges): the sockets
// transport always sends before interior compute and awaits only where
// the data is consumed. On shared memory nothing departs at a Begin, so
// a shared-memory plan leaves xAfter and unBefore empty and the same
// loop runs x, post, interior z, barrier, combine, barrier, u+n.
// TestPlanSplitsPartitionRuns pins the split.
//
// The crossings are an exchange.Exchanger (internal/exchange), the
// transport seam this executor is structured around:
//
//   - exchange.Local (ExecutorSpec transport "local", the default) is
//     the shared-memory form: each Finish is one crossing of a
//     spin-then-park barrier (sched.Barrier), each Begin nothing. The
//     packed rows (exchange.Mailbox) are the only boundary state
//     another shard ever reads.
//   - exchange.Messaged (transport "sockets") moves exactly the
//     boundary state as length-prefixed frames on per-peer byte
//     streams — in-process loopback streams by default, or real
//     sockets when ExecutorSpec.Addrs names paradmm-shardworker
//     processes, in which case Remote (remote.go) coordinates one
//     worker process per shard and this package's ServeWorker
//     (worker.go) runs the far side. Every session opens the same way:
//     Cfg out, Ready back — naming the tier of the worker's problem
//     cache (cache.go) that served it — and the State push unless the
//     worker already holds that exact state. docs/transport.md documents the
//     frame protocol, handshake, manifests, and failure semantics;
//     Stats.BytesPerIter prices the measured traffic with the same
//     graph.CutCost word model auto and the fleet planner decide on.
//
// The u+n sweep and the next iteration's x touch only shard-local
// state plus z delivered by FinishScatterZ, so a shard racing ahead
// blocks in the next FinishGatherM before it can disturb a slower
// shard. Interior z is computed by exactly the serial fused kernel. For
// boundary z, a posted block is x + u rounded once, which is bit for
// bit the reference m-block; the post follows the shard's own x-update
// and its previous u+n sweep in program order, and nothing between the
// post and the combine writes X, U or the row, so the combiner meets
// exactly the values the reference m-blocks would have frozen, in the
// same CSR order the serial z-update uses. The combine reads no other
// shard's X or U at all — each shard's edge state is written and read
// by one core only, and the row is written once and read once per
// iteration, ordered by the two sync points (the race job runs the
// suite under the detector). TestCombineReadsNoRemoteEdgeState poisons
// every remote X and U before the combine and still gets Serial's z.
// Every strategy, owner rule, shard count and transport therefore
// produces bit-identical iterates to the Serial reference; the
// cross-executor conformance suite and the cross-process integration
// test pin this.
//
// # Sync-wait accounting
//
// Every worker times its own loop, by one rule on every transport:
// each nanosecond between entry and exit lands in exactly one of the x,
// z and u phase buckets or in sync wait — Post and Combine are z work
// (boundary z, the combine, is a sub-count of z), the four Begin/Finish
// calls are sync wait: the barrier crossings on shared memory, frame
// encode + write plus whatever blocking the interior compute failed to
// hide on a wire. TestShardLoopTimeAddsUp pins that the buckets add up
// to the loop's wall time. In-process workers hand their block's times
// to Iterate, worker processes send them in each Up frame's header, and
// one Stats.endBlock adds every worker's to its Stats.Workers entry. A
// block's straggler is the worker that waited least — the one the
// others waited for — so the solve's phase times are, block by block,
// the straggler's, and Straggles counts how often each worker was it
// (TestStragglerNamed). In-process waits follow one policy
// (sched.SpinThenPark — exchange.Local's barrier and the loopback pipes
// alike): yield-spin for about the cost of a futex sleep/wake, then park.
//
// # Fault tolerance
//
// One rule with no knob, the liveness rule (the workers' Ticks;
// protocol.go), bounds a cross-process session from its dial through
// its handshake to every running block, with one dial and handshake per
// NewRemote (Solve's attempt loop owns every retry); every transport
// failure carries
// a *WorkerError attributing worker, endpoint, and protocol phase —
// returned by NewRemote at the handshake and by Remote.Iterate (hence
// admm.Run) mid-solve; nothing panics on a lost worker. ProbeWorkers
// speaks the Ping/Pong health frames the worker's accept loop answers
// even mid-session. A worker's session is one state table (mesh-wait,
// await-state, ready, running; runSession documents it), and any
// control frame outside it is refused with FrameErr and ends the
// session. Solve
// (solve.go) is the one route from an ExecutorSpec to a finished
// solve — the serving layer, the bulk pipeline and paradmm-solve all
// call it and nothing else — and for a
// spec naming workers it turns a fail-stop worker into a policy
// decision: fail with the typed error, or probe the pool, re-partition
// onto the survivors and re-run cold — or finish on the local fused
// executor. Because every shard count is bit-identical to Serial,
// recovery changes availability, never the answer.
// docs/fault-tolerance.md has the full contract and the
// fault-injection tests (internal/faultnet) that pin it.
//
// # What the boundary costs
//
// The paper's second OpenMP strategy — persistent workers separated by
// barriers — is this executor over exchange.Local (bench
// abl-openmp-strategy measures it against the fork-join loops). Per iteration it pays 2 sync points plus a
// boundary-z combine whose cost is proportional to the boundary-edge
// count, where a barrier after every update kind would pay its
// crossings regardless of graph shape. On
// chain-structured graphs (MPC: a K-step chain splits with K-1 cut
// points under the balanced split) the combine is a few variables
// and sharded wins on synchronization count alone. On dense graphs
// (packing's all-pairs collision nodes make nearly every variable
// boundary) the combine is a global z-update — the scaling cliff the
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
