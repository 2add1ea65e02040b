// Package exchange is the boundary-synchronization seam of the sharded
// executor: the per-iteration protocol that publishes each shard's
// boundary m = x + u contributions, gathers the remote ones at the
// majority owner, and delivers the owner-computed consensus z back to
// every shard that touches the variable — extracted from internal/shard
// so one executor codebase can run against shared memory today and
// message transports (unix sockets, TCP) across processes and machines.
//
// # The seam
//
// One sharded iteration has exactly two synchronization points
// (internal/shard/doc.go):
//
//	phase A (local x/m/interior-z)
//	-- sync 1: m-contributions of boundary variables published --
//	phase B (owner combines boundary z)
//	-- sync 2: boundary z published --
//	phase C (local u/n)
//
// Exchanger abstracts the two crossings. GatherM is sync 1: on return,
// every m-block needed to combine the worker's owned boundary variables
// is available. ScatterZ is sync 2: on return, every boundary variable's
// owner-computed z is available to the worker. What "available" means is
// the implementation's choice:
//
//   - Local: both calls are crossings of one shared-memory barrier.
//     Phase-A writes become visible through the barrier's
//     happens-before edges; nothing is copied.
//
//   - Messaged: both calls move exactly the boundary state over
//     length-prefixed binary frames on per-peer byte streams. GatherM
//     serializes the worker's owned m-contributions for remotely-owned
//     boundary variables (reading M on the reference schedule, forming
//     x + u on the fused one), sends one frame per peer, and ingests the
//     peers' frames into the M array; ScatterZ does the same for the
//     owner-computed z blocks. The per-peer payload layout is fixed at
//     construction by a Manifest derived from the graph.Partition, so
//     steady-state frames carry only payload doubles — no indices. The
//     same implementation serves in-process workers over loopback
//     streams (NewLoopback — the full wire codec without sockets) and
//     one worker process of a cross-process solve (NewPeer, streams
//     backed by unix-socket or TCP connections; see internal/shard's
//     coordinator/worker protocol and docs/transport.md).
//
// # Waiting
//
// The in-process sync points — Local's barrier, and a loopback pipe
// whose reader arrives before the frame — wait the same way
// (spinThenPark, local.go): yield-spin for about the cost of one futex
// sleep/wake, then park on a condition variable. A shard's phases are
// tens of microseconds to a millisecond, and a peer is usually a few
// yields behind, so parking at once costs a wake per crossing — more
// than the crossing. Real sockets (NewPeer) block in the kernel as
// before.
//
// # Bit-identity
//
// The serial z-update gathers m-blocks in CSR edge order and multiplies
// by the reciprocal rho sum. Local preserves it trivially (the owner
// reads shared arrays in CSR order). Messaged preserves it by
// materializing every m-contribution — remote blocks from the wire, the
// owner's own from a local m = x + u pass on the fused schedule — into
// the M array at canonical edge indices and letting the owner run the
// unmodified reference gather: same values, same order, same rounding.
// The m-blocks themselves are bit-identical between schedules (the
// reference m-update computes exactly x + u), so fused and unfused
// messaged solves reproduce Serial bit for bit; the cross-executor
// conformance suite pins this for every workload.
//
// # Traffic accounting
//
// Messaged counts every data-plane byte it sends (payload and frame
// headers). The Manifest's word counts equal graph.CutCost by
// construction — remote gathers cost deg(v) - pins(v, owner) blocks,
// z broadcasts lambda(v) - 1 — so measured bytes per iteration are
// directly comparable to the degree-weighted cut model the partitioner
// refines and gpusim.MultiDevice prices links with: predicted bytes =
// CutCost words x 8, and the delta is pure framing overhead.
package exchange
