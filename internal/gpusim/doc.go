// Package gpusim is the SIMT device simulator that stands in for the
// paper's NVIDIA Tesla K40.
//
// The paper's GPU results are scheduling and memory-system phenomena:
// speedup grows with factor-graph size and saturates; 32 threads per
// block beats NVIDIA's "use 1024" guidance because tasks are complex and
// heterogeneous; the x- and z-updates accelerate least (divergent,
// degree-imbalanced, gather-heavy) while the m-, u- and n-updates are
// bandwidth-bound and accelerate most. This package reproduces those
// mechanisms with a deterministic cost model instead of real hardware:
//
//   - every graph element update is a Task with a flop count, streamed
//     ("contiguous") memory words, scattered memory accesses, and a
//     branchiness factor (from the proximal operator's Work meter);
//   - a kernel launch maps tasks to thread blocks, blocks to SMs
//     (round-robin), and simulates per-SM waves of resident blocks with
//     warp-level divergence, 128-byte memory transactions, a fixed
//     memory latency partially hidden by warp residency, per-block
//     scheduling overhead, and a device-wide bandwidth floor;
//   - the serial-CPU reference time is computed from the *same* Task
//     meters with a scalar-pipeline model (internal/gpusim/cpu.go), so
//     simulated speedups depend only on schedule and shape, never on two
//     inconsistent instrumentation paths.
//
// A simulated platform — the GPU (NewBackend), the serial CPU
// (NewCPUBackend) or the fork-join multi-core (NewMultiCoreBackend) — is
// a price table: simulated seconds per iteration for each of the five
// phases, computed once per graph from the Task meters. One Backend type
// serves all three. Its host state advances on the fused sweep
// (admm.UpdateXRange, then admm.UpdateZUNRange), bit-identical to the
// five-phase oracle; only the charged time is the five-phase model.
package gpusim
