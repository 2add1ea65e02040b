package exchange

import "repro/internal/graph"

// Mailbox holds the packed boundary rows of one (graph, manifest) pair
// — for every ordered shard pair i -> j the m-blocks Manifest.MEdges
// enumerates, contiguous and in manifest order — and the kernel that
// combines boundary z from them. It is the only way boundary m-state
// reaches its combiner:
//
//	Post(w)     worker w forms m = x + u for the edges of its outbound
//	            rows and writes them into the rows
//	-- sync point 1 (Exchanger.GatherM) --
//	Combine(w)  worker w computes z for the boundary variables it owns,
//	            walking each variable's edges in CSR order: a remote
//	            edge's block comes from w's inbox, a local edge's is
//	            formed as x + u in registers
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
// rounding as admm.UpdateZFusedRange (a posted block is the x + u sum
// already rounded, exactly what the register path forms), so boundary z
// is bit-identical to Serial by construction.
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
		switch {
		case i == j || (only >= 0 && i != only):
		case shared:
			mb.out[pi] = mb.in[pi]
		default:
			mb.out[pi] = make([]float64, len(row)*d)
		}
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

// Combine computes the consensus z of the boundary variables worker w
// owns from its inbox and its own edges' x + u. Every row into w must
// have been posted and have crossed sync point 1, and w's own x-update
// must be complete. The per-element operation sequence is
// admm.UpdateZFusedRange's, small-d register path included.
func (mb *Mailbox) Combine(w int) {
	g := mb.g
	d := g.D()
	X, U, Z, Rho := g.X, g.U, g.Z, g.Rho
	in, src := mb.inbox[w], mb.src[w]
	if d <= 5 {
		for _, b := range mb.vars[w] {
			var z0, z1, z2, z3, z4 float64
			var rhoSum float64
			edges := g.VarEdges(b)
			from := src[:len(edges)]
			src = src[len(edges):]
			for i, e := range edges {
				r := Rho[e]
				rhoSum += r
				if s := from[i]; s >= 0 {
					m := in[int(s)*d : int(s)*d+d]
					z0 += r * m[0]
					if d > 1 {
						z1 += r * m[1]
					}
					if d > 2 {
						z2 += r * m[2]
					}
					if d > 3 {
						z3 += r * m[3]
					}
					if d > 4 {
						z4 += r * m[4]
					}
					continue
				}
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
	for _, b := range mb.vars[w] {
		z := Z[b*d : b*d+d]
		for i := range z {
			z[i] = 0
		}
		var rhoSum float64
		edges := g.VarEdges(b)
		from := src[:len(edges)]
		src = src[len(edges):]
		for n, e := range edges {
			r := Rho[e]
			rhoSum += r
			if s := from[n]; s >= 0 {
				m := in[int(s)*d : int(s)*d+d][:len(z)]
				for i := range z {
					z[i] += r * m[i]
				}
				continue
			}
			x := X[e*d : e*d+d][:len(z)]
			u := U[e*d : e*d+d][:len(z)]
			for i := range z {
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
