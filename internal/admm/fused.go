package admm

import "repro/internal/graph"

// This file implements the fused two-pass iteration: the same Algorithm-2
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
// The fused schedule collapses them into two passes:
//
//	fused z:   z_b = sum rho*(x+u) / sum rho   — the m-message is formed
//	           in registers inside the gather, M is never written;
//	           (16d bytes/edge + z write)
//	fused u/n: u += alpha*(x - z); n = z - u   — one edge sweep writes
//	           both dual state and the next iteration's prox input.
//	           (40d bytes/edge)
//
// That is ~56d bytes of edge traffic per iteration against the reference
// path's ~88d, and one fewer array (M) in the working set — and in
// memory: a graph only the fused path runs on never allocates M. Per-edge
// arithmetic order is exactly the reference kernels' — the sum x+u is
// rounded before the rho multiply, the CSR gather order is unchanged, and
// n reads the just-updated u — so fused iterates are bit-identical to
// Serial; the cross-executor conformance suite pins this.
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
// fly instead of reading the M array. Safe to call concurrently on
// disjoint ranges once X and U are quiescent.
func UpdateZFusedRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	X, U, Z, Rho := g.X, g.U, g.Z, g.Rho
	if d <= 5 {
		// Small-d fast path (packing d=2, svm d=3, mpc d=5): the gather
		// state lives entirely in registers — no z store per edge, no
		// slice headers. Per element the operation sequence is unchanged
		// (m = x+u rounds, then the rho multiply accumulates), so
		// iterates stay bit-identical to the reference kernels.
		for b := lo; b < hi; b++ {
			var z0, z1, z2, z3, z4 float64
			var rhoSum float64
			for _, e := range g.VarEdges(b) {
				r := Rho[e]
				rhoSum += r
				base := e * d
				z0 += r * (X[base] + U[base])
				if d > 1 {
					z1 += r * (X[base+1] + U[base+1])
				}
				if d > 2 {
					z2 += r * (X[base+2] + U[base+2])
				}
				if d > 3 {
					z3 += r * (X[base+3] + U[base+3])
				}
				if d > 4 {
					z4 += r * (X[base+4] + U[base+4])
				}
			}
			inv := 1 / rhoSum
			zb := b * d
			Z[zb] = z0 * inv
			if d > 1 {
				Z[zb+1] = z1 * inv
			}
			if d > 2 {
				Z[zb+2] = z2 * inv
			}
			if d > 3 {
				Z[zb+3] = z3 * inv
			}
			if d > 4 {
				Z[zb+4] = z4 * inv
			}
		}
		return
	}
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
				z[i] += r * m
			}
		}
		inv := 1 / rhoSum
		for i := range z {
			z[i] *= inv
		}
	}
}

// UpdateZFusedVars computes the fused z-update for an explicit list of
// variable nodes (degree-balanced groups, shard boundary combines).
func UpdateZFusedVars(g *graph.Graph, vars []int) {
	for _, b := range vars {
		UpdateZFusedRange(g, b, b+1)
	}
}

// UpdateUNRange merges the u- and n-updates into one sweep over edges
// [lo, hi): u += alpha*(x - z_b), then n = z_b - u from the fresh u.
// Element-wise this is the exact sequence the separate reference kernels
// execute, so results are bit-identical.
func UpdateUNRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	X, U, N, Z, Alpha := g.X, g.U, g.N, g.Z, g.Alpha
	if d <= 5 {
		// Small-d fast path: fully unrolled, no slice headers. The
		// per-element sequence (u' = u + alpha*(x-z), then n = z - u')
		// is the reference kernels' exactly.
		for e := lo; e < hi; e++ {
			al := Alpha[e]
			base := e * d
			zb := g.EdgeVar(e) * d
			z0 := Z[zb]
			u0 := U[base] + al*(X[base]-z0)
			U[base] = u0
			N[base] = z0 - u0
			if d > 1 {
				z1 := Z[zb+1]
				u1 := U[base+1] + al*(X[base+1]-z1)
				U[base+1] = u1
				N[base+1] = z1 - u1
			}
			if d > 2 {
				z2 := Z[zb+2]
				u2 := U[base+2] + al*(X[base+2]-z2)
				U[base+2] = u2
				N[base+2] = z2 - u2
			}
			if d > 3 {
				z3 := Z[zb+3]
				u3 := U[base+3] + al*(X[base+3]-z3)
				U[base+3] = u3
				N[base+3] = z3 - u3
			}
			if d > 4 {
				z4 := Z[zb+4]
				u4 := U[base+4] + al*(X[base+4]-z4)
				U[base+4] = u4
				N[base+4] = z4 - u4
			}
		}
		return
	}
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
			ui := u[i] + al*(x[i]-z[i])
			u[i] = ui
			n[i] = z[i] - ui
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
