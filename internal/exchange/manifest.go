package exchange

import (
	"hash/fnv"

	"repro/internal/graph"
)

// Manifest fixes the steady-state payload layout of a messaged exchange
// for one (graph, partition) pair: which edge's m-block and which
// variable's z-block occupies which offset of each per-peer frame. Both
// ends of every stream derive the manifest from the same deterministic
// partition, so frames carry only payload doubles — no indices; the
// Digest is exchanged at handshake to verify the derivations agree
// before any data flows (a worker that partitioned a different graph
// fails fast instead of silently combining garbage).
type Manifest struct {
	// Shards is the worker count (>= the partition's effective part
	// count; workers beyond it have empty rows).
	Shards int
	// D is the graph's doubles-per-edge.
	D int
	// MEdges[i*Shards+j] lists, ascending, the edges owned by shard i
	// (their function node is on i) incident to a boundary variable
	// owned by shard j. An off-diagonal row is the packed boundary row
	// of the ordered pair i -> j: i posts those m-blocks, in this
	// order, to j at sync point 1 (Mailbox). The diagonal i == j is the
	// owner's own contributions — never posted; the owner forms them
	// from its own x + u as it combines.
	MEdges [][]int32
	// ZVars[i*Shards+j] lists, ascending, the boundary variables owned
	// by shard i that shard j has edges on (i != j): the z-blocks i
	// sends j at sync point 2.
	ZVars [][]int32
}

// NewManifest derives the manifest of partition p for a solve with the
// given worker count (>= p.Parts; the partitioner clamps parts to the
// function count, and surplus workers simply idle). Boundary variables
// are combined by their majority owner, p.VarPart — the rule every
// message transport ships by.
func NewManifest(g *graph.Graph, p *graph.Partition, shards int) *Manifest {
	return NewManifestOwners(g, p, shards, p.VarPart)
}

// NewManifestOwners is NewManifest with the combiner of each boundary
// variable given by owner (one entry per variable; the owner must hold
// an edge of the variable). The sharded executor on shared memory
// passes p.GatherOwners.
func NewManifestOwners(g *graph.Graph, p *graph.Partition, shards int, owner []int) *Manifest {
	m := &Manifest{
		Shards: shards,
		D:      g.D(),
		MEdges: make([][]int32, shards*shards),
		ZVars:  make([][]int32, shards*shards),
	}
	// Functions are visited ascending and a function's edges are
	// contiguous, so each MEdges row is built in ascending edge order.
	for a, s := range p.FuncPart {
		lo, hi := g.FuncEdges(a)
		for e := lo; e < hi; e++ {
			if v := g.EdgeVar(e); p.IsBoundary(v) {
				o := owner[v]
				m.MEdges[s*shards+o] = append(m.MEdges[s*shards+o], int32(e))
			}
		}
	}
	touched := make([]bool, shards)
	for _, v := range p.BoundaryVars {
		o := owner[v]
		for i := range touched {
			touched[i] = false
		}
		for _, e := range g.VarEdges(v) {
			touched[p.FuncPart[g.EdgeFunc(e)]] = true
		}
		for s, t := range touched {
			if t && s != o {
				m.ZVars[o*shards+s] = append(m.ZVars[o*shards+s], int32(v))
			}
		}
	}
	return m
}

// GatherWords returns the doubles crossing the wire at sync point 1 per
// iteration: one d-block per off-diagonal MEdges entry.
func (m *Manifest) GatherWords() int {
	n := 0
	for i := 0; i < m.Shards; i++ {
		for j := 0; j < m.Shards; j++ {
			if i != j {
				n += len(m.MEdges[i*m.Shards+j])
			}
		}
	}
	return n * m.D
}

// ScatterWords returns the doubles crossing the wire at sync point 2
// per iteration: one d-block per ZVars entry.
func (m *Manifest) ScatterWords() int {
	n := 0
	for _, row := range m.ZVars {
		n += len(row)
	}
	return n * m.D
}

// Linked reports whether workers i and j exchange any boundary state
// in either direction — the condition for a mesh connection between
// them.
func (m *Manifest) Linked(i, j int) bool {
	k := m.Shards
	return len(m.MEdges[i*k+j]) > 0 || len(m.MEdges[j*k+i]) > 0 ||
		len(m.ZVars[i*k+j]) > 0 || len(m.ZVars[j*k+i]) > 0
}

// Words returns the total steady-state doubles per iteration. By
// construction this equals graph.CutCost of the source partition: the
// off-diagonal MEdges entries of a boundary variable count
// deg(v) - pins(v, owner) and its ZVars entries count lambda(v) - 1,
// the two terms of the cut model. TestManifestWordsMatchCutCost pins
// the identity.
func (m *Manifest) Words() int { return m.GatherWords() + m.ScatterWords() }

// Digest returns an FNV-1a fingerprint of the manifest — dimensions and
// every index list. Coordinator and workers compare digests at
// handshake; a mismatch means the sides partitioned different graphs
// (or diverging partitioner versions) and the session must abort.
func (m *Manifest) Digest() uint64 {
	h := fnv.New64a()
	var scratch [4]byte
	w32 := func(v int32) {
		scratch[0] = byte(v)
		scratch[1] = byte(v >> 8)
		scratch[2] = byte(v >> 16)
		scratch[3] = byte(v >> 24)
		h.Write(scratch[:])
	}
	w32(int32(m.Shards))
	w32(int32(m.D))
	for _, rows := range [][][]int32{m.MEdges, m.ZVars} {
		for _, row := range rows {
			w32(int32(len(row)))
			for _, v := range row {
				w32(v)
			}
		}
	}
	return h.Sum64()
}
