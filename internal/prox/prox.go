// Package prox provides the generic proximal-operator library used to
// assemble factor-graphs.
//
// Every operator implements graph.Op: given the incoming messages n (one
// d-double block per incident edge) and the per-edge penalties rho, Eval
// writes the minimizer of f(s) + sum_k rho_k/2 ||s_k - n_k||^2 into x.
//
// Padding convention. The factor-graph fixes d doubles per edge (the
// paper's number_of_dims_per_edge); a node whose natural dimension is
// smaller (a scalar radius or slack on a d=2 graph, say) must treat the
// trailing components as absent. The exact proximal map of a function
// that does not depend on a component is the identity on that component,
// so operators copy n into x there. The helpers in this file implement
// that convention once.
package prox

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// copyPad copies the identity part of each edge block: components
// nd..d-1 of every block are set to the incoming message. Operators call
// this first and then overwrite the live components. A pad is one to a
// few doubles, so it is copied by an element loop: the builtin copy
// would pay a memmove call for each.
func copyPad(x, n []float64, deg, d, nd int) {
	if nd >= d {
		return
	}
	for k := 0; k < deg; k++ {
		for i := k*d + nd; i < (k+1)*d; i++ {
			x[i] = n[i]
		}
	}
}

// Identity is the proximal operator of f = 0: x = n. It is useful for
// padding experiments and as the no-opinion operator in tests.
type Identity struct{}

// Eval implements graph.Op.
func (Identity) Eval(x, n, rho []float64, d int) { copy(x, n) }

// Work implements graph.Op.
func (Identity) Work(deg, d int) graph.Work {
	return graph.Work{Flops: 0, MemWords: float64(2 * deg * d)}
}

// Box is the projection onto the box [Lo, Hi]^nd, applied independently
// to each of the node's edge blocks; f is the indicator of the box.
// Dim is the natural dimension (components beyond it pass through).
type Box struct {
	Lo, Hi float64
	Dim    int
}

// Eval implements graph.Op.
func (b Box) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := b.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		off := k * d
		for i := 0; i < nd; i++ {
			x[off+i] = linalg.Clamp(n[off+i], b.Lo, b.Hi)
		}
	}
}

// Work implements graph.Op.
func (b Box) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(2 * deg * d), MemWords: float64(2 * deg * d), Branchy: 0.5, Serial: 0.1}
}

// NonNeg projects every live component onto [0, inf).
type NonNeg struct{ Dim int }

// Eval implements graph.Op.
func (p NonNeg) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		off := k * d
		for i := 0; i < nd; i++ {
			if v := n[off+i]; v > 0 {
				x[off+i] = v
			} else {
				x[off+i] = 0
			}
		}
	}
}

// Work implements graph.Op.
func (p NonNeg) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(deg * d), MemWords: float64(2 * deg * d), Branchy: 0.5, Serial: 0.1}
}

// L1 is the proximal operator of Lambda * ||s||_1 (soft thresholding),
// applied per component with threshold Lambda/rho.
type L1 struct {
	Lambda float64
	Dim    int
}

// Eval implements graph.Op.
func (p L1) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		off := k * d
		t := p.Lambda / rho[k]
		for i := 0; i < nd; i++ {
			x[off+i] = linalg.SoftThreshold(n[off+i], t)
		}
	}
}

// Work implements graph.Op.
func (p L1) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(3 * deg * d), MemWords: float64(2 * deg * d), Branchy: 0.6, Serial: 0.1}
}

// SemiLasso is the prox of Lambda * sum_i s_i restricted to s >= 0 (the
// paper's "minimal error" SVM operator, Appendix C.1): a one-sided soft
// threshold, x_i = max(n_i - Lambda/rho, 0).
type SemiLasso struct {
	Lambda float64
	Dim    int
}

// Eval implements graph.Op.
func (p SemiLasso) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		off := k * d
		t := p.Lambda / rho[k]
		for i := 0; i < nd; i++ {
			if v := n[off+i] - t; v > 0 {
				x[off+i] = v
			} else {
				x[off+i] = 0
			}
		}
	}
}

// Work implements graph.Op.
func (p SemiLasso) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(2 * deg * d), MemWords: float64(2 * deg * d), Branchy: 0.5, Serial: 0.1}
}

// SquaredNorm is the prox of (C/2)*||s||^2 on a single-edge node:
// x = rho*n / (rho + C). C may be negative (a concave reward, as in the
// packing radius operator) provided rho + C > 0 at run time; Eval panics
// otherwise, since the subproblem is then unbounded.
type SquaredNorm struct {
	C   float64
	Dim int
}

// Eval implements graph.Op.
func (p SquaredNorm) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		r := rho[k]
		if r+p.C <= 0 {
			panic(fmt.Sprintf("prox: SquaredNorm unbounded subproblem (rho=%g, C=%g)", r, p.C))
		}
		s := r / (r + p.C)
		off := k * d
		for i := 0; i < nd; i++ {
			x[off+i] = s * n[off+i]
		}
	}
}

// Work implements graph.Op.
func (p SquaredNorm) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(2*deg*d + 3*deg), MemWords: float64(2 * deg * d), Serial: 0.2}
}

// Consensus is the prox of the indicator of {s_1 = s_2 = ... = s_deg}
// (the paper's "equality" operator, Appendix C.4, generalized to any
// degree): every block becomes the rho-weighted average of the incoming
// blocks.
//
// A two-edge node (the svm equality chain, one node per data point) takes
// its own path: one sliced loop over the two blocks' live components,
// free of bounds checks, in the generic loop's operation order exactly
// — rhoSum = (0 + rho0) + rho1, s = (0 + rho0*n0) + rho1*n1, then
// s /= rhoSum — so both paths write the same bits. The leading 0 + is
// kept: it turns a -0 product into +0, as the generic accumulator does.
// Every other degree takes the generic loop.
type Consensus struct{ Dim int }

// Eval implements graph.Op.
func (p Consensus) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	if deg == 2 {
		consensus2(x, n, rho, d, nd)
		return
	}
	copyPad(x, n, deg, d, nd)
	var rhoSum float64
	for _, r := range rho {
		rhoSum += r
	}
	for i := 0; i < nd; i++ {
		var s float64
		for k := 0; k < deg; k++ {
			s += rho[k] * n[k*d+i]
		}
		s /= rhoSum
		for k := 0; k < deg; k++ {
			x[k*d+i] = s
		}
	}
}

// consensus2 is Consensus.Eval on a two-edge node with nd <= d live
// components per block. Like the generic loop it reads rho[k] inside
// the loop, which keeps the compiler's operand order — and so the
// payload x86 propagates when both operands are NaN — the generic
// loop's.
func consensus2(x, n, rho []float64, d, nd int) {
	x0, x1 := x[:d], x[d:2*d]
	n0, n1 := n[:d], n[d:2*d]
	for i := nd; i < d; i++ {
		x0[i], x1[i] = n0[i], n1[i]
	}
	r := rho[:2]
	rhoSum := (0 + r[0]) + r[1]
	a := n0[:nd]
	b, y0, y1 := n1[:len(a)], x0[:len(a)], x1[:len(a)]
	for i, v := range a {
		s := (0 + r[0]*v) + r[1]*b[i]
		s /= rhoSum
		y0[i], y1[i] = s, s
	}
}

// Work implements graph.Op.
func (p Consensus) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(3 * deg * d), MemWords: float64(2 * deg * d)}
}

// L2Ball projects each edge block onto {||s|| <= R}.
type L2Ball struct {
	R   float64
	Dim int
}

// Eval implements graph.Op.
func (p L2Ball) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, deg, d, nd)
	for k := 0; k < deg; k++ {
		off := k * d
		blk := n[off : off+nd]
		nrm := linalg.Norm2(blk)
		if nrm <= p.R {
			copy(x[off:off+nd], blk)
			continue
		}
		s := p.R / nrm
		for i := 0; i < nd; i++ {
			x[off+i] = s * blk[i]
		}
	}
}

// Work implements graph.Op.
func (p L2Ball) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(4 * deg * d), MemWords: float64(2 * deg * d), Branchy: 0.4, Serial: 0.5}
}

// AffineEquality is the indicator of {s : C s = rhs} over the node's
// concatenated live components. The constraint matrix columns index the
// concatenation edge-block-by-edge-block, nd live components per block.
// The projection is rho-weighted (each edge's components share its rho),
// matching the exact prox: x = n - K (C n - rhs), with the gain
// K = W C^T (C W C^T)^{-1} computed once per rho vector. The gain depends
// only on C and rho, so operators made from one another by Clone share
// it: an Eval that meets a new rho takes the gain a sibling published for
// it, or computes and publishes one. A published gain is never written
// again.
//
// An operator is a flyweight: C, RHS, the live dimension, the degree and
// the published gain live in one affineConstraint every Clone points to,
// and an operator adds only its own gain pointer and, once it has
// evaluated on a padded graph, a pointer to that path's buffers — three
// words, so a chain of thousands of clones costs 24 bytes a node.
//
// This operator backs the MPC linearized-dynamics prox (Appendix B) and
// the initial-condition clamp.
type AffineEquality struct {
	con  *affineConstraint // shared by every Clone sibling
	gain *affineGain       // the gain for this node's current rho
	pad  *affinePad        // the padded path's buffers; nil until it runs
}

// affineConstraint is what Clone siblings share: the constraint (only
// read) and the latest gain any of them computed.
type affineConstraint struct {
	c      *linalg.Mat
	rhs    []float64
	dim    int // live components per edge block
	deg    int
	shared atomic.Pointer[affineGain]
}

// affinePad holds the padded path's concatenated live components,
// unprojected and projected.
type affinePad struct{ in, out []float64 }

// affineGain is a projector precomputed for one per-edge rho vector.
// It is immutable once built, which is what lets nodes on different
// shards project through one copy.
type affineGain struct {
	rho  []float64
	proj *linalg.AffineProjector
}

func (g *affineGain) matches(rho []float64) bool {
	if g == nil {
		return false
	}
	for k, r := range rho {
		if g.rho[k] != r {
			return false
		}
	}
	return true
}

// NewAffineEquality builds the operator; c must have nd*deg columns where
// deg is the degree of the node it will be attached to.
func NewAffineEquality(c *linalg.Mat, rhs []float64, nd int) (*AffineEquality, error) {
	if nd <= 0 {
		return nil, fmt.Errorf("prox: AffineEquality needs positive dim, got %d", nd)
	}
	if c.Cols%nd != 0 {
		return nil, fmt.Errorf("prox: constraint matrix has %d cols, not a multiple of dim %d", c.Cols, nd)
	}
	if len(rhs) != c.Rows {
		return nil, fmt.Errorf("prox: AffineEquality rhs length %d != rows %d", len(rhs), c.Rows)
	}
	return &AffineEquality{con: &affineConstraint{c: c, rhs: rhs, dim: nd, deg: c.Cols / nd}}, nil
}

// Clone returns an operator for another function node under the same
// constraint, in one 24-byte allocation. It shares p's constraint and
// published gain, so a builder that attaches thousands of nodes to one
// constraint matrix pays for one gain per rho, not one per node. All a
// clone owns is its pointer to the gain for its node's current rho and,
// once it has evaluated on a padded graph, the two buffers of that path.
func (p *AffineEquality) Clone() *AffineEquality {
	return &AffineEquality{con: p.con, gain: p.gain}
}

// Eval implements graph.Op. It only reads n. It is NOT safe for
// concurrent use on the same operator instance: it caches the gain that
// matched the last rho and, on the padded path, gathers into its own
// buffers. Attach one instance per function node, which is how every
// builder in this repository uses it. Clone siblings may be evaluated
// concurrently.
func (p *AffineEquality) Eval(x, n, rho []float64, d int) {
	con := p.con
	deg := len(rho)
	if deg != con.deg {
		panic(fmt.Sprintf("prox: AffineEquality built for degree %d, attached to degree %d", con.deg, deg))
	}
	nd := con.dim
	if nd > d {
		panic(fmt.Sprintf("prox: AffineEquality dim %d exceeds graph dims %d", nd, d))
	}
	if !p.gain.matches(rho) {
		p.gain = con.gainFor(rho)
	}
	if nd == d {
		// No padding: the blocks are the concatenation already.
		p.gain.proj.Project(x[:deg*d], n[:deg*d])
		return
	}
	copyPad(x, n, deg, d, nd)
	// Gather live components.
	if p.pad == nil {
		p.pad = &affinePad{in: make([]float64, con.c.Cols), out: make([]float64, con.c.Cols)}
	}
	in, out := p.pad.in, p.pad.out
	for k := 0; k < deg; k++ {
		copy(in[k*nd:(k+1)*nd], n[k*d:k*d+nd])
	}
	p.gain.proj.Project(out, in)
	for k := 0; k < deg; k++ {
		copy(x[k*d:k*d+nd], out[k*nd:(k+1)*nd])
	}
}

// gainFor returns the published gain if it was computed for rho, and
// otherwise computes one and publishes it. Two nodes that race here for
// the same rho compute bit-identical gains (a gain is a function of C and
// rho alone), so it does not matter whose is published; the
// compare-and-swap only keeps a slower node from replacing a gain that
// siblings already hold with a duplicate.
func (con *affineConstraint) gainFor(rho []float64) *affineGain {
	cur := con.shared.Load()
	if cur.matches(rho) {
		return cur
	}
	nd := con.dim
	w := make([]float64, con.c.Cols)
	for k, r := range rho {
		for i := 0; i < nd; i++ {
			w[k*nd+i] = r
		}
	}
	proj, err := linalg.NewAffineProjector(con.c, con.rhs)
	if err == nil {
		err = proj.Precompute(w)
	}
	if err != nil {
		panic(fmt.Sprintf("prox: AffineEquality projection: %v", err))
	}
	g := &affineGain{rho: append([]float64(nil), rho...), proj: proj}
	con.shared.CompareAndSwap(cur, g)
	return g
}

// Work implements graph.Op.
func (p *AffineEquality) Work(deg, d int) graph.Work {
	m := float64(p.con.c.Rows)
	n := float64(p.con.c.Cols)
	// Charged as a solve per call (gram formation, factorization,
	// substitutions, rank-m update) — the cost profile of the paper's C
	// implementation, which refactors inside the PO; our cached fast
	// path is an implementation optimization the cost model deliberately
	// does not credit, so that simulated timings reflect the paper's.
	return graph.Work{
		Flops:    n*m*(2+m) + m*m*m,
		MemWords: float64(2*deg*d) + m*n + m*m,
		Branchy:  0.2,
		Serial:   0.9,
	}
}

// Halfspace is the indicator of {s : dot(A, s) >= B} over the node's
// concatenated live components (A has nd*deg entries). The projection is
// rho-weighted exactly.
type Halfspace struct {
	A   []float64
	B   float64
	Dim int
}

// Eval implements graph.Op.
func (p Halfspace) Eval(x, n, rho []float64, d int) {
	deg := len(rho)
	nd := p.Dim
	if nd > d {
		nd = d
	}
	if len(p.A) != deg*nd {
		panic(fmt.Sprintf("prox: Halfspace normal has %d entries, node supplies %d", len(p.A), deg*nd))
	}
	copyPad(x, n, deg, d, nd)
	// g(n) = dot(A, n_live) - B; if >= 0 feasible, x = n.
	var g float64
	for k := 0; k < deg; k++ {
		for i := 0; i < nd; i++ {
			g += p.A[k*nd+i] * n[k*d+i]
		}
	}
	g -= p.B
	if g >= 0 {
		for k := 0; k < deg; k++ {
			copy(x[k*d:k*d+nd], n[k*d:k*d+nd])
		}
		return
	}
	// Weighted projection: x = n - g * W a / (a^T W a), W = diag(1/rho).
	var den float64
	for k := 0; k < deg; k++ {
		for i := 0; i < nd; i++ {
			a := p.A[k*nd+i]
			den += a * a / rho[k]
		}
	}
	if den == 0 {
		for k := 0; k < deg; k++ {
			copy(x[k*d:k*d+nd], n[k*d:k*d+nd])
		}
		return
	}
	lam := g / den
	for k := 0; k < deg; k++ {
		for i := 0; i < nd; i++ {
			x[k*d+i] = n[k*d+i] - lam*p.A[k*nd+i]/rho[k]
		}
	}
}

// Work implements graph.Op.
func (p Halfspace) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(6 * deg * d), MemWords: float64(3 * deg * d), Branchy: 0.5, Serial: 0.5}
}

// Quadratic is the prox of f(s) = 1/2 s^T Q s + q^T s on a single-edge
// node over nd live components: x = (Q + rho I)^{-1} (rho n - q).
// Q must be symmetric positive semidefinite. The factorization is kept
// for the last rho (linalg.Ridge).
type Quadratic struct {
	Q   *linalg.Mat
	Lin []float64 // q, length nd (nil means zero)
	Dim int

	ridge *linalg.Ridge
}

// NewQuadratic validates shapes and returns the operator.
func NewQuadratic(q *linalg.Mat, lin []float64) (*Quadratic, error) {
	ridge, err := linalg.NewRidge(q)
	if err != nil {
		return nil, fmt.Errorf("prox: Quadratic: %w", err)
	}
	if lin != nil && len(lin) != q.Rows {
		return nil, fmt.Errorf("prox: Quadratic linear term length %d != %d", len(lin), q.Rows)
	}
	return &Quadratic{Q: q, Lin: lin, Dim: q.Rows, ridge: ridge}, nil
}

// Eval implements graph.Op. Like AffineEquality, one instance must not be
// shared across function nodes evaluated concurrently.
func (p *Quadratic) Eval(x, n, rho []float64, d int) {
	if len(rho) != 1 {
		panic("prox: Quadratic attaches to single-edge nodes")
	}
	nd := p.Dim
	if nd > d {
		panic(fmt.Sprintf("prox: Quadratic dim %d exceeds graph dims %d", nd, d))
	}
	copyPad(x, n, 1, d, nd)
	r := rho[0]
	for i := 0; i < nd; i++ {
		x[i] = r * n[i]
		if p.Lin != nil {
			x[i] -= p.Lin[i]
		}
	}
	if err := p.ridge.Solve(r, x[:nd]); err != nil {
		panic(fmt.Sprintf("prox: Quadratic Q + rho I not PD: %v", err))
	}
}

// Work implements graph.Op.
func (p *Quadratic) Work(deg, d int) graph.Work {
	nd := float64(p.Dim)
	return graph.Work{Flops: 2*nd*nd + 4*nd, MemWords: float64(2*d) + nd*nd, Serial: 0.7}
}

// DiagQuadratic is the prox of f(s) = 1/2 sum_i w_i s_i^2 on a
// single-edge node: x_i = rho n_i / (rho + w_i). It is the fast path the
// MPC cost operator uses for diagonal Q and R (paper Appendix B).
type DiagQuadratic struct {
	W   []float64 // diagonal weights, length = live dim
	Dim int
}

// Eval implements graph.Op.
func (p DiagQuadratic) Eval(x, n, rho []float64, d int) {
	if len(rho) != 1 {
		panic("prox: DiagQuadratic attaches to single-edge nodes")
	}
	nd := p.Dim
	if nd > d {
		nd = d
	}
	copyPad(x, n, 1, d, nd)
	r := rho[0]
	for i := 0; i < nd; i++ {
		x[i] = r * n[i] / (r + p.W[i])
	}
}

// Work implements graph.Op.
func (p DiagQuadratic) Work(deg, d int) graph.Work {
	return graph.Work{Flops: float64(3 * p.Dim), MemWords: float64(2*d + p.Dim), Serial: 0.3}
}

// Clamp is the indicator of {s = Value} on a single-edge node's live
// components: x = Value regardless of n (an infinitely confident prior,
// used for the MPC initial condition q(0) = q0).
type Clamp struct {
	Value []float64
}

// Eval implements graph.Op.
func (p Clamp) Eval(x, n, rho []float64, d int) {
	if len(rho) != 1 {
		panic("prox: Clamp attaches to single-edge nodes")
	}
	nd := len(p.Value)
	if nd > d {
		nd = d
	}
	copyPad(x, n, 1, d, nd)
	copy(x[:nd], p.Value[:nd])
}

// Work implements graph.Op.
func (p Clamp) Work(deg, d int) graph.Work {
	return graph.Work{Flops: 0, MemWords: float64(2 * d)}
}
