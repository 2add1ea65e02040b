// Package exchange is the boundary-synchronization seam of the sharded
// executor: the per-iteration protocol that publishes each shard's
// boundary m = x + u contributions, gathers the remote ones at the
// variable's owner, and delivers the owner-computed consensus z back to
// every shard that touches the variable — extracted from internal/shard
// so one executor codebase can run against shared memory today and
// message transports (unix sockets, TCP) across processes and machines.
//
// # The seam
//
// One sharded iteration has exactly two synchronization points
// (internal/shard/doc.go), each split in a send half and a receive
// half:
//
//	x over the functions feeding outbound rows, post boundary rows
//	-- sync 1 begin: m-contributions of boundary variables depart --
//	remaining x, interior z and u/n
//	-- sync 1 finish: peers' m-contributions arrived --
//	owner combines boundary z, then u/n over its own edges of it
//	-- sync 2 begin: boundary z departs --
//	-- sync 2 finish: peers' boundary z arrived --
//	u/n over the posted edges, whose z a peer combined
//
// Boundary m-state travels in packed rows. Every ordered shard pair
// i -> j has one: the m-blocks of i's edges on the boundary variables j
// combines, contiguous, in the order Manifest.MEdges lists them. The
// Mailbox holds the rows and both ends of their use — Post writes a
// worker's outbound rows (x + u), Combine computes the owned boundary z
// from the worker's inbox rows and its own edges' x + u and runs the
// u/n of those own edges while z is in registers, and Settle runs the
// u/n of the posted edges once their z is back — and the
// Exchanger is what carries a posted row to its combiner and the
// combined z back. On return from FinishGatherM every row into the
// worker's inbox holds this iteration's blocks; on return from
// FinishScatterZ every boundary variable's owner-computed z is
// available to the worker. How a row crosses is the implementation's
// choice:
//
//   - Local: each Finish is a crossing of one shared-memory barrier
//     (sched.Barrier) and each Begin is nothing; the exchanger holds no
//     graph. The mailbox (NewMailbox) gives each pair one buffer, so
//     the sender's post lands directly in the owner's inbox — 8d bytes
//     per boundary edge streamed once — and becomes visible through the
//     barrier's happens-before edges. The owner never reads the
//     sender's X or U: those cache lines stay on the core that writes
//     them every iteration.
//
//   - Messaged: the sync points move exactly the boundary state over
//     length-prefixed binary frames on per-peer byte streams.
//     BeginGatherM sends each posted row as one frame per peer and
//     FinishGatherM decodes the peers' frames into the worker's inbox
//     rows; nothing is scattered into M and the worker's own
//     contributions are not copied anywhere. ScatterZ
//     does the same for the owner-computed z blocks. The per-peer
//     payload layout is fixed at construction by a Manifest derived
//     from the graph.Partition, so steady-state frames carry only
//     payload doubles — no indices. The same implementation serves
//     in-process workers over loopback streams (NewLoopback — the full
//     wire codec without sockets) and one worker process of a
//     cross-process solve (NewPeer, streams backed by unix-socket or
//     TCP connections; see internal/shard's coordinator/worker protocol
//     and docs/transport.md).
//
// Who combines a boundary variable differs by transport. Everything
// that ships bytes uses the majority owner (graph.Partition.VarPart,
// NewManifest): the shard holding most of the variable's edges, so the
// fewest blocks cross. On shared memory every block costs the same
// wherever it is combined, so the sharded executor lays its mailbox out
// by graph.Partition.GatherOwners (NewManifestOwners), which evens the
// shards' z-gather loads instead.
//
// # Waiting
//
// The in-process sync points — Local's barrier, and a loopback pipe
// whose reader arrives before the frame — wait the same way
// (sched.SpinThenPark): yield-spin for about the cost of one futex
// sleep/wake, then park on a condition variable. A shard's phases are
// tens of microseconds to a millisecond, and a peer is usually a few
// yields behind, so parking at once costs a wake per crossing — more
// than the crossing. Real sockets (NewPeer) block in the kernel as
// before.
//
// # Bit-identity
//
// The serial z-update gathers m-blocks in CSR edge order and multiplies
// by the reciprocal rho sum. Mailbox.Combine walks each owned boundary
// variable's edges in that same CSR order on every transport, taking a
// remote edge's block from the inbox row it was posted to and forming a
// local edge's as x + u in registers. A posted block is the sum x + u
// already rounded to a double — exactly the value the serial fused
// gather forms before its rho multiply, and exactly the reference
// m-block — and neither a shared buffer nor the frame codec changes a
// bit of it, so the same values meet the same operations in the same
// order: boundary z equals Serial's by construction. The combine then
// runs u += alpha*(x - z), n = z - u over the worker's own edges of the
// variable exactly as admm.UpdateZUNRange does after its gather, and
// Settle runs the same u/n over the posted edges with the z delivered
// by ScatterZ; on amd64 with AVX2 and d <= 5 both run in
// combine_amd64.s, which TestCombineKernelMatchesGo,
// TestSettleKernelMatchesGo and FuzzCombine hold to the Go loops bit
// for bit, NaN payloads included. The cross-executor
// conformance suite pins all of it for every workload, and
// internal/shard's TestCombineReadsNoRemoteEdgeState pins the
// structure: a combine with every remote X and U poisoned still
// produces Serial's z.
//
// # Traffic accounting
//
// Messaged counts every data-plane byte it sends (payload and frame
// headers). The Manifest's word counts equal graph.CutCost by
// construction — remote gathers cost deg(v) - pins(v, owner) blocks,
// z broadcasts lambda(v) - 1 — so measured bytes per iteration are
// directly comparable to the degree-weighted cut model auto decides on
// and gpusim.MultiDevice prices links with: predicted bytes =
// CutCost words x 8, and the delta is pure framing overhead. Local
// sends no frame and reports zeros, but it is no longer true that
// nothing moves: each posted block is written by one core and read by
// another, the same deg(v) - pins(v, owner) blocks per boundary
// variable under its own owner rule — bytes the cache-coherence fabric
// carries, which no counter here sees.
package exchange
