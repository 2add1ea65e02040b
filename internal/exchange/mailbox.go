package exchange

import (
	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// Mailbox holds the packed boundary rows of one (graph, manifest) pair
// — for every ordered shard pair i -> j the m-blocks Manifest.MEdges
// enumerates, contiguous and in manifest order — and the kernels that
// combine boundary z from them and run every boundary edge's u/n. It is
// the only way boundary m-state reaches its combiner:
//
//	Post(w)     worker w forms m = x + u for the edges of its outbound
//	            rows and writes them into the rows
//	-- sync point 1 (Exchanger.GatherM) --
//	Combine(w)  worker w computes z for the boundary variables it owns,
//	            walking each variable's edges in CSR order: a remote
//	            edge's block comes from w's inbox, a local edge's is
//	            formed as x + u in registers; then it runs u/n over
//	            w's own edges of the variable while z is in registers
//	-- sync point 2 (Exchanger.ScatterZ) --
//	Settle(w)   worker w runs u/n over the edges it posted, with the z
//	            its peers combined
//
// so a combiner reads no other shard's X or U: on shared memory those
// cache lines stay on their shard's core, and a worker process needs no
// copy of them. On the shared-memory transport (NewMailbox) a pair's
// row is one buffer, written by its sender and read by its receiver on
// opposite sides of the barrier. On a message transport the sender's
// row is the frame payload and the receiver's row is what the frame is
// decoded into; Messaged builds that form itself.
//
// Combine gathers the same values in the same order with the same
// rounding as admm.UpdateZUNRange (a posted block is the x + u sum
// already rounded, exactly what the register path forms), so boundary z
// is bit-identical to Serial by construction, and then updates u and n
// of w's own edges as that sweep does; a peer's edges on the variable
// take their u/n in the peer's Settle once z arrives, so on shared
// memory no two cores write one U or N line.
type Mailbox struct {
	g   *graph.Graph
	man *Manifest

	// out[i*k+j] is the row of pair i -> j as worker i posts it,
	// in[i*k+j] as worker j combines from it: the same buffer on shared
	// memory, two buffers with a frame between them on a wire. in rows
	// are consecutive slices of the receiver's inbox.
	out, in [][]float64
	inbox   [][]float64

	// vars[w] lists, ascending, the boundary variables worker w
	// combines. src[w] has one entry per edge of those variables, in
	// the order Combine visits them: the block index into inbox[w] for
	// a remote edge, -1 for one of w's own.
	vars [][]int
	src  [][]int32

	// settle[w] lists the edges worker w posts, row by row, and
	// settleVar[w] each one's variable: the edges Settle updates.
	settle, settleVar [][]int32
}

// NewMailbox returns the shared-memory mailbox of a sharded solve over
// g: every row is one buffer shared by its sender and its
// receiver, who are ordered only by the sync points between Post and
// Combine.
func NewMailbox(g *graph.Graph, man *Manifest) *Mailbox {
	return newMailbox(g, man, true, -1)
}

// newMailbox builds the mailbox; only >= 0 allocates the rows and the
// combine program of that one worker (a worker process holds no other).
func newMailbox(g *graph.Graph, man *Manifest, shared bool, only int) *Mailbox {
	k, d := man.Shards, man.D
	mb := &Mailbox{
		g: g, man: man,
		out:   make([][]float64, k*k),
		in:    make([][]float64, k*k),
		inbox: make([][]float64, k),
		vars:  make([][]int, k),
		src:   make([][]int32, k),

		settle:    make([][]int32, k),
		settleVar: make([][]int32, k),
	}
	// slot[e-e0] is edge e's block index in its receiver's inbox, -1
	// for one its own shard combines; owner[v-v0] the combiner of
	// boundary variable v, -1 for an interior one. Both are read off
	// the manifest, diagonal included, so the mailbox needs no
	// partition, and both span only the boundary's own index ranges: a
	// chain cut in two has a boundary a few indices wide in a graph of
	// tens of thousands.
	e0, e1, v0, v1 := g.NumEdges(), 0, g.NumVariables(), 0
	for _, row := range man.MEdges {
		for _, e := range row {
			v := g.EdgeVar(int(e))
			e0, e1 = min(e0, int(e)), max(e1, int(e)+1)
			v0, v1 = min(v0, v), max(v1, v+1)
		}
	}
	slot := make([]int32, max(0, e1-e0))
	for e := range slot {
		slot[e] = -1
	}
	owner := make([]int32, max(0, v1-v0))
	for v := range owner {
		owner[v] = -1
	}
	for j := 0; j < k; j++ {
		blocks := 0
		for i := 0; i < k; i++ {
			row := man.MEdges[i*k+j]
			for _, e := range row {
				owner[g.EdgeVar(int(e))-v0] = int32(j)
			}
			if i == j {
				continue
			}
			for idx, e := range row {
				slot[int(e)-e0] = int32(blocks + idx)
			}
			blocks += len(row)
		}
		if only >= 0 && j != only {
			continue
		}
		mb.inbox[j] = make([]float64, blocks*d)
		off := 0
		for i := 0; i < k; i++ {
			if i == j {
				continue
			}
			n := len(man.MEdges[i*k+j]) * d
			mb.in[i*k+j] = mb.inbox[j][off : off+n : off+n]
			off += n
		}
	}
	for pi, row := range man.MEdges {
		i, j := pi/k, pi%k
		if i == j || (only >= 0 && i != only) {
			continue
		}
		if shared {
			mb.out[pi] = mb.in[pi]
		} else {
			mb.out[pi] = make([]float64, len(row)*d)
		}
		for _, e := range row {
			mb.settleVar[i] = append(mb.settleVar[i], int32(g.EdgeVar(int(e))))
		}
		mb.settle[i] = append(mb.settle[i], row...)
	}
	for i, w := range owner {
		if w < 0 || (only >= 0 && int(w) != only) {
			continue
		}
		v := v0 + i
		mb.vars[w] = append(mb.vars[w], v)
		for _, e := range g.VarEdges(v) {
			mb.src[w] = append(mb.src[w], slot[e-e0])
		}
	}
	return mb
}

// Row returns the packed row of pair i -> j as its receiver sees it
// (nil on the diagonal and for a worker this mailbox does not carry).
func (mb *Mailbox) Row(i, j int) []float64 { return mb.in[i*mb.man.Shards+j] }

// Post writes worker w's outbound rows: for every peer j, the m-blocks
// of w's edges on the boundary variables j combines, in manifest order.
// The x-update of those edges must be complete; nothing else of phase A
// is read.
func (mb *Mailbox) Post(w int) {
	k, d := mb.man.Shards, mb.man.D
	X, U := mb.g.X, mb.g.U
	for j := 0; j < k; j++ {
		dst := mb.out[w*k+j]
		if len(dst) == 0 {
			continue
		}
		row := mb.man.MEdges[w*k+j]
		if d <= 5 {
			// Small-d path, as in the kernels this feeds: no slice
			// headers per block.
			for idx, e := range row {
				base, at := int(e)*d, idx*d
				dst[at] = X[base] + U[base]
				if d > 1 {
					dst[at+1] = X[base+1] + U[base+1]
				}
				if d > 2 {
					dst[at+2] = X[base+2] + U[base+2]
				}
				if d > 3 {
					dst[at+3] = X[base+3] + U[base+3]
				}
				if d > 4 {
					dst[at+4] = X[base+4] + U[base+4]
				}
			}
			continue
		}
		for idx, e := range row {
			base := int(e) * d
			x := X[base : base+d]
			u := U[base : base+d][:len(x)]
			m := dst[idx*d : idx*d+d][:len(x)]
			for i := range x {
				m[i] = x[i] + u[i]
			}
		}
	}
}

// Combine runs, for the boundary variables worker w combines, the
// fused schedule's one sweep after the x-update (admm.UpdateZUNRange):
// it gathers each variable's z from w's inbox and w's own edges' x + u,
// then runs u += alpha*(x - z), n = z - u over w's own edges of that
// variable while z is still in registers. A peer's edges on the
// variable are not touched: their u/n runs in the peer's Settle once
// the z arrives (sync point 2). Every row into w must have been posted
// and have crossed sync point 1, and w's own x-update must be complete.
// The per-element operation sequence is UpdateZUNRange's, small-d
// register path included; on amd64 with AVX2 and d <= 5 it runs in
// combine_amd64.s.
func (mb *Mailbox) Combine(w int) {
	g := mb.g
	d := g.D()
	start, edges := g.VarCSR()
	if d <= 5 {
		if useAVX2 {
			combineAVX2(mb.vars[w], start, edges, mb.src[w], mb.inbox[w], g.X, g.U, g.N, g.Z, g.Rho, g.Alpha, d)
			return
		}
		combineGo(mb.vars[w], start, edges, mb.src[w], mb.inbox[w], g.X, g.U, g.N, g.Z, g.Rho, g.Alpha, d)
		return
	}
	X, U, Z, Rho := g.X, g.U, g.Z, g.Rho
	in, src := mb.inbox[w], mb.src[w]
	for _, b := range mb.vars[w] {
		z := Z[b*d : b*d+d]
		for i := range z {
			z[i] = 0
		}
		var rhoSum float64
		vEdges := edges[start[b]:start[b+1]]
		from := src[:len(vEdges)]
		src = src[len(vEdges):]
		for k, e := range vEdges {
			r := Rho[e]
			rhoSum += r
			if s := from[k]; s >= 0 {
				m := in[int(s)*d : int(s)*d+d][:len(z)]
				for i := range z {
					z[i] += float64(r * m[i])
				}
				continue
			}
			x := X[e*d : e*d+d][:len(z)]
			u := U[e*d : e*d+d][:len(z)]
			for i := range z {
				m := x[i] + u[i]
				z[i] += float64(r * m)
			}
		}
		inv := 1 / rhoSum
		for i := range z {
			z[i] *= inv
		}
		for k, e := range vEdges {
			if from[k] < 0 {
				admm.UpdateUNRange(g, e, e+1)
			}
		}
	}
}

// Settle runs u += alpha*(x - z), n = z - u over the edges worker w
// posted — its edges on the boundary variables its peers combine —
// once FinishScatterZ has delivered those variables' z. Each edge's
// arithmetic is admm.UpdateUNRange's; on amd64 with AVX2 and d <= 5 it
// runs in combine_amd64.s.
func (mb *Mailbox) Settle(w int) {
	g := mb.g
	d := g.D()
	if d <= 5 {
		if useAVX2 {
			settleAVX2(mb.settle[w], mb.settleVar[w], g.X, g.U, g.N, g.Z, g.Alpha, d)
			return
		}
		settleGo(mb.settle[w], mb.settleVar[w], g.X, g.U, g.N, g.Z, g.Alpha, d)
		return
	}
	for _, e := range mb.settle[w] {
		admm.UpdateUNRange(g, int(e), int(e)+1)
	}
}

// useAVX2 selects the AVX2 combine and settle: linalg's CPU check,
// false off amd64. Tests turn it off to run the Go loops.
var useAVX2 = linalg.AVX2()

// combineGo is Combine's Go loops for d <= 5 over the boundary
// variables vars, the variable CSR (the edges of b are
// edges[start[b]:start[b+1]]), the combine program src (one entry per
// edge of vars, in that order: a block index into in, or -1 for an own
// edge) and the graph's arrays: the body off AVX2, and the reference
// the AVX2 combine is tested against. Per element the sequence is
// admm's one sweep, a remote edge's posted block standing in for the
// x + u its owner formed; a variable with no edges gets 0 * (1/0), a
// NaN, as there. As in that sweep, rhoSum's add follows the lanes so
// that r stays live through them, and z is stored after the u/n loop,
// which keeps Z's slice out of that loop.
func combineGo(vars, start, edges []int, src []int32, in, X, U, N, Z, Rho, Alpha []float64, d int) {
	// One length for X, U and N and one for rho and alpha: a bounds
	// check on x or rho then covers u and n or alpha, which keeps the
	// loops' slice lengths out of registers they need.
	U, N = U[:len(X)], N[:len(X)]
	Alpha = Alpha[:len(Rho)]
	for _, b := range vars {
		vEdges := edges[start[b]:start[b+1]]
		from := src[:len(vEdges)]
		src = src[len(vEdges):]
		var z0, z1, z2, z3, z4 float64
		var rhoSum float64
		for k, e := range vEdges {
			r := Rho[e]
			if s := int(from[k]); s >= 0 {
				m := in[s*d : s*d+d]
				z0 += float64(r * m[0])
				if d > 1 {
					z1 += float64(r * m[1])
				}
				if d > 2 {
					z2 += float64(r * m[2])
				}
				if d > 3 {
					z3 += float64(r * m[3])
				}
				if d > 4 {
					z4 += float64(r * m[4])
				}
			} else {
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
			}
			rhoSum += r
		}
		// Rounded explicitly: z feeds the u/n subtracts below, and an
		// architecture with fused multiply-adds would otherwise take
		// the unrounded product into them.
		inv := 1 / rhoSum
		z0 = float64(z0 * inv)
		z1 = float64(z1 * inv)
		z2 = float64(z2 * inv)
		z3 = float64(z3 * inv)
		z4 = float64(z4 * inv)
		for k, e := range vEdges {
			if from[k] >= 0 {
				continue
			}
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

// settleGo is Settle's Go loop for d <= 5 over the edges and their
// variables: the body off AVX2, and the reference the AVX2 settle is
// tested against. Per element the sequence is admm.UpdateUNRange's.
func settleGo(edges, vars []int32, X, U, N, Z, Alpha []float64, d int) {
	U, N = U[:len(X)], N[:len(X)]
	vars = vars[:len(edges)]
	for i, e := range edges {
		al := Alpha[e]
		base, zb := int(e)*d, int(vars[i])*d
		z0 := Z[zb]
		u0 := U[base] + float64(al*(X[base]-z0))
		U[base] = u0
		N[base] = z0 - u0
		if d > 1 {
			z1 := Z[zb+1]
			u1 := U[base+1] + float64(al*(X[base+1]-z1))
			U[base+1] = u1
			N[base+1] = z1 - u1
		}
		if d > 2 {
			z2 := Z[zb+2]
			u2 := U[base+2] + float64(al*(X[base+2]-z2))
			U[base+2] = u2
			N[base+2] = z2 - u2
		}
		if d > 3 {
			z3 := Z[zb+3]
			u3 := U[base+3] + float64(al*(X[base+3]-z3))
			U[base+3] = u3
			N[base+3] = z3 - u3
		}
		if d > 4 {
			z4 := Z[zb+4]
			u4 := U[base+4] + float64(al*(X[base+4]-z4))
			U[base+4] = u4
			N[base+4] = z4 - u4
		}
	}
}
