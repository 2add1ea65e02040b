package admm

import (
	"repro/internal/graph"
	"repro/internal/linalg"
)

// This file implements the fused iteration: the same Algorithm-2
// arithmetic as the five-phase reference path, restructured so the CPU
// executors read each of the X/U/Z arrays exactly once per iteration.
//
// The five phases split into one prox pass and four streaming edge/variable
// loops. On CPUs the streaming loops are memory-bound, and three of them
// re-traverse state another loop just produced:
//
//	m-update reads X,U and writes M;       (24d bytes/edge)
//	z-update re-reads M through the CSR;   ( 8d bytes/edge + z write)
//	u-update re-reads X and Z;             (32d bytes/edge)
//	n-update re-reads Z,U and writes N.    (24d bytes/edge)
//
// Every executor but the five-phase oracle collapses them into one
// sweep over variables (UpdateZUNRange); for each variable b:
//
//	z_b = sum rho*(x+u) / sum rho   — the m-message is formed in
//	                                  registers, M is never written;
//	                                  reads x,u (16d bytes/edge + z write)
//	u += alpha*(x - z_b); n = z_b - u over b's own edges, z_b still in
//	                                  registers and their x and u still in
//	                                  L1: writes u,n (16d bytes/edge)
//
// That is ~32d bytes of edge traffic per iteration against the reference
// path's ~88d, and one fewer array (M) in the working set — and in
// memory: a graph only the fused path runs on never allocates M. The
// same arithmetic as two passes, a z gather over variables
// (UpdateZFusedRange) and a u/n sweep over edges (UpdateUNRange: ~56d
// bytes/edge in all), serves the sweep's wide blocks; a shard's
// boundary variables take the same arithmetic in exchange.Mailbox's
// Combine and Settle. Per-edge
// arithmetic order is exactly the reference kernels' — the sum x+u is
// rounded before the rho multiply, the CSR gather order is unchanged,
// and n reads the just-updated u — and every edge belongs to exactly one
// variable, so both forms are bit-identical to Serial; the
// cross-executor conformance suite pins this. Every product is rounded
// explicitly (float64(...)), so an architecture whose compiler fuses
// multiply-adds computes the same bits.
//
// M does not exist until a five-phase consumer asks for it: Finalize
// leaves g.M nil, the fused path never touches it, and UpdateMRange
// allocates it (graph.EnsureM) on first use. Once it exists the fused
// path leaves it stale. The synchronous five-phase executors are safe
// against that: the reference m-update fully overwrites M from X and U
// before the z-update reads it, so they can resume on a graph last
// advanced by a fused backend. Consumers that read M without first
// rewriting all of it must refresh it — AsyncBackend does (its
// z-updates average M over edges of not-yet-activated functions, so it
// calls MaterializeM on Iterate entry), and callers that inspect g.M
// directly between runs should do the same.

// UpdateZFusedRange computes the rho-weighted consensus average for
// variable nodes [lo, hi), forming each edge's m = x + u message on the
// fly instead of reading the M array: UpdateZUNRange's gather for d > 5,
// and the z half of the two-pass form the tests hold the sweep to. One
// loop serves every d; the sweep's small-d path is zunGo and its AVX2
// kernel. Safe to call concurrently on disjoint ranges once X and U are
// quiescent.
func UpdateZFusedRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	X, U, Z, Rho := g.X, g.U, g.Z, g.Rho
	for b := lo; b < hi; b++ {
		z := Z[b*d : b*d+d]
		for i := range z {
			z[i] = 0
		}
		var rhoSum float64
		for _, e := range g.VarEdges(b) {
			r := Rho[e]
			rhoSum += r
			base := e * d
			// Slicing x and u to len(z) lets the compiler drop the
			// bounds checks inside the gather.
			x := X[base : base+d][:len(z)]
			u := U[base : base+d][:len(z)]
			for i := range z {
				// Round the sum before the multiply, exactly as the
				// reference path does when it stores m[i] = x[i] + u[i].
				m := x[i] + u[i]
				z[i] += float64(r * m)
			}
		}
		inv := 1 / rhoSum
		for i := range z {
			z[i] *= inv
		}
	}
}

// UpdateUNRange merges the u- and n-updates into one sweep over edges
// [lo, hi): u += alpha*(x - z_b), then n = z_b - u from the fresh u:
// UpdateZUNRange's u/n for d > 5, Mailbox.Settle's and Combine's for
// d > 5, and the u/n half of the two-pass form the tests hold the sweep
// to. Element-wise this is the exact sequence the separate reference
// kernels execute, so results are bit-identical.
func UpdateUNRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	X, U, N, Z, Alpha := g.X, g.U, g.N, g.Z, g.Alpha
	for e := lo; e < hi; e++ {
		al := Alpha[e]
		base := e * d
		x := X[base : base+d]
		zb := g.EdgeVar(e) * d
		// Slicing everything to len(x) elides the inner bounds checks;
		// keeping the fresh u in a register feeds n without a reload.
		z := Z[zb : zb+d][:len(x)]
		u := U[base : base+d][:len(x)]
		n := N[base : base+d][:len(x)]
		for i := range x {
			ui := u[i] + float64(al*(x[i]-z[i]))
			u[i] = ui
			n[i] = z[i] - ui
		}
	}
}

// UpdateZUNRange is the fused schedule's one sweep after the x-update:
// for each variable b in [lo, hi) it gathers z_b as UpdateZFusedRange
// does, then runs UpdateUNRange's u += alpha*(x - z_b), n = z_b - u
// over b's own edges while z_b is still in registers, so X and U are
// read once. Every edge belongs to exactly one variable and its u/n
// update reads only its own x and u and z_b, so this is bit-identical to
// the two passes over the same variables and their edges. Safe to call
// concurrently on disjoint variable ranges once X is quiescent. On amd64
// with AVX2 and d <= 5 the sweep runs in sweep_amd64.s.
func UpdateZUNRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	if d > 5 {
		// Wide blocks (lasso's d = 128): a call is noise next to a
		// block, so each variable runs the two passes' loops, its
		// edges' x and u still in cache from the gather.
		for b := lo; b < hi; b++ {
			UpdateZFusedRange(g, b, b+1)
			for _, e := range g.VarEdges(b) {
				UpdateUNRange(g, e, e+1)
			}
		}
		return
	}
	start, edges := g.VarCSR()
	_ = start[lo : hi+1] // the kernel trusts the range
	if sweepAVX2 {
		zunAVX2(start, edges, g.X, g.U, g.N, g.Z, g.Rho, g.Alpha, d, lo, hi)
		return
	}
	zunGo(start, edges, g.X, g.U, g.N, g.Z, g.Rho, g.Alpha, d, lo, hi)
}

// sweepAVX2 selects the AVX2 sweep: linalg's CPU check, false off amd64.
// Tests turn it off to run the Go loops.
var sweepAVX2 = linalg.AVX2()

// zunGo is UpdateZUNRange's Go loops for d <= 5 over the variable CSR
// (the edges of b are edges[start[b]:start[b+1]]) and the graph's
// arrays: the body off AVX2, and the reference the AVX2 sweep is tested
// against. Per element the sequence is UpdateZFusedRange's, then
// UpdateUNRange's; a variable with no edges gets 0 * (1/0), a NaN, as
// there. rhoSum's add follows the lanes so that r stays live through
// them and every lane's product takes m as its first operand, as the
// kernel's do; z is stored after the u/n loop, which keeps Z's slice
// out of that loop.
func zunGo(start, edges []int, X, U, N, Z, Rho, Alpha []float64, d, lo, hi int) {
	// One length for X, U and N and one for rho and alpha: a bounds
	// check on x or rho then covers u and n or alpha, which keeps the
	// loops' slice lengths out of registers they need.
	U, N = U[:len(X)], N[:len(X)]
	Alpha = Alpha[:len(Rho)]
	for b := lo; b < hi; b++ {
		vEdges := edges[start[b]:start[b+1]]
		var z0, z1, z2, z3, z4 float64
		var rhoSum float64
		for _, e := range vEdges {
			r := Rho[e]
			base := e * d
			z0 += float64(r * (X[base] + U[base]))
			if d > 1 {
				z1 += float64(r * (X[base+1] + U[base+1]))
			}
			if d > 2 {
				z2 += float64(r * (X[base+2] + U[base+2]))
			}
			if d > 3 {
				z3 += float64(r * (X[base+3] + U[base+3]))
			}
			if d > 4 {
				z4 += float64(r * (X[base+4] + U[base+4]))
			}
			rhoSum += r
		}
		// Rounded explicitly: z_b feeds the u/n subtracts below, and
		// an architecture with fused multiply-adds would otherwise
		// take the unrounded product into them.
		inv := 1 / rhoSum
		z0 = float64(z0 * inv)
		z1 = float64(z1 * inv)
		z2 = float64(z2 * inv)
		z3 = float64(z3 * inv)
		z4 = float64(z4 * inv)
		for _, e := range vEdges {
			al := Alpha[e]
			base := e * d
			u0 := U[base] + float64(al*(X[base]-z0))
			U[base] = u0
			N[base] = z0 - u0
			if d > 1 {
				u1 := U[base+1] + float64(al*(X[base+1]-z1))
				U[base+1] = u1
				N[base+1] = z1 - u1
			}
			if d > 2 {
				u2 := U[base+2] + float64(al*(X[base+2]-z2))
				U[base+2] = u2
				N[base+2] = z2 - u2
			}
			if d > 3 {
				u3 := U[base+3] + float64(al*(X[base+3]-z3))
				U[base+3] = u3
				N[base+3] = z3 - u3
			}
			if d > 4 {
				u4 := U[base+4] + float64(al*(X[base+4]-z4))
				U[base+4] = u4
				N[base+4] = z4 - u4
			}
		}
		zb := b * d
		Z[zb] = z0
		if d > 1 {
			Z[zb+1] = z1
		}
		if d > 2 {
			Z[zb+2] = z2
		}
		if d > 3 {
			Z[zb+3] = z3
		}
		if d > 4 {
			Z[zb+4] = z4
		}
	}
}

// MaterializeM recomputes the M array from the current X and U,
// allocating it on first use. The fused path never writes M (the message
// lives only in registers); callers that inspect g.M directly after a
// fused run use this to refresh it.
func MaterializeM(g *graph.Graph) {
	UpdateMRange(g, 0, g.NumEdges())
}
