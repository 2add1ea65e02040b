package admm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
)

// AsyncBackend implements the asynchronous ADMM variant from the paper's
// future-work list (item 1, citing Iutzeler et al.'s randomized ADMM):
// instead of synchronized sweeps over all graph elements, each step
// activates one function node uniformly at random and performs the full
// local update cascade for just its neighborhood —
//
//	x-update for the node, m-update for its edges, z-update for the
//	variables it touches, then u- and n-updates for every edge incident
//	to those variables.
//
// One "iteration" of this backend performs |F| random activations, so
// its per-iteration work is comparable to a synchronous sweep (each
// function is activated once in expectation). The schedule is randomized
// but deterministic given the seed, which keeps experiments reproducible
// and the backend race-free: it models asynchrony's *algorithmic* effect
// (stale, unsynchronized neighborhoods) rather than racing hardware.
type AsyncBackend struct {
	rng *rand.Rand
}

// NewAsync returns an asynchronous backend seeded for reproducibility.
func NewAsync(seed int64) *AsyncBackend {
	return &AsyncBackend{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Backend.
func (b *AsyncBackend) Name() string { return "async-random-activation" }

// Close implements Backend.
func (b *AsyncBackend) Close() {}

// RunBlock implements Backend.
func (b *AsyncBackend) RunBlock(g *graph.Graph, blk Block) (BlockReport, error) {
	return SplitBlock(b.Iterate, g, blk)
}

// Iterate advances g by iters iterations, adding each phase's time.
func (b *AsyncBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	nF := g.NumFunctions()
	d := g.D()
	start := time.Now()
	// Async z-updates average M over every edge of a touched variable,
	// including edges of functions not activated yet, so M must be
	// coherent on entry. A fused backend that previously advanced this
	// graph never wrote M (the message lives in registers); one refresh
	// re-establishes m = x + u everywhere before activations start
	// maintaining it incrementally.
	MaterializeM(g)
	var touched []int
	for it := 0; it < iters; it++ {
		for step := 0; step < nF; step++ {
			a := b.rng.Intn(nF)
			lo, hi := g.FuncEdges(a)
			// Local x-update.
			g.Op(a).Eval(g.X[lo*d:hi*d], g.N[lo*d:hi*d], g.Rho[lo:hi], d)
			// Local m-update and variable set.
			touched = touched[:0]
			for e := lo; e < hi; e++ {
				x := g.EdgeBlock(g.X, e)
				u := g.EdgeBlock(g.U, e)
				m := g.EdgeBlock(g.M, e)
				for i := 0; i < d; i++ {
					m[i] = x[i] + u[i]
				}
				touched = append(touched, g.EdgeVar(e))
			}
			// z-update for touched variables.
			for _, v := range touched {
				UpdateZRange(g, v, v+1)
			}
			// Dual (u) integration happens only on the activated node's
			// own edges — integrating stale x on other edges against the
			// fresh z would double-count and diverge. The n message,
			// however, is a pure function of (z, u) and is refreshed on
			// every edge that saw its z change, so neighbors observe the
			// new consensus immediately.
			for e := lo; e < hi; e++ {
				UpdateURange(g, e, e+1)
			}
			for _, v := range touched {
				for _, e := range g.VarEdges(v) {
					UpdateNRange(g, e, e+1)
				}
			}
		}
	}
	// Async has no phase structure; attribute all time to the x phase
	// bucket so totals remain meaningful.
	phaseNanos[PhaseX] += time.Since(start).Nanoseconds()
	return nil
}

var _ Backend = (*AsyncBackend)(nil)

// TwoBlock is the classic Algorithm-1 ADMM in consensus form,
//
//	minimize f(x) + g(z)  subject to  x = z,
//
// provided as the baseline the paper's message-passing scheme is compared
// against conceptually. ProxF and ProxG receive (dst, v, rho) and must
// write prox_{f,rho}(v) into dst.
type TwoBlock struct {
	N     int // variable dimension
	Rho   float64
	ProxF func(dst, v []float64, rho float64)
	ProxG func(dst, v []float64, rho float64)

	X, Z, U []float64
}

// NewTwoBlock allocates state for an n-dimensional consensus ADMM.
func NewTwoBlock(n int, rho float64, proxF, proxG func(dst, v []float64, rho float64)) (*TwoBlock, error) {
	if n <= 0 {
		return nil, fmt.Errorf("admm: TwoBlock dimension %d", n)
	}
	if rho <= 0 {
		return nil, fmt.Errorf("admm: TwoBlock rho %g", rho)
	}
	if proxF == nil || proxG == nil {
		return nil, fmt.Errorf("admm: TwoBlock needs both proximal maps")
	}
	return &TwoBlock{
		N: n, Rho: rho, ProxF: proxF, ProxG: proxG,
		X: make([]float64, n), Z: make([]float64, n), U: make([]float64, n),
	}, nil
}

// Step performs one Algorithm-1 iteration:
// x = prox_f(z-u); z = prox_g(x+u); u += x-z.
func (t *TwoBlock) Step() {
	v := make([]float64, t.N)
	for i := range v {
		v[i] = t.Z[i] - t.U[i]
	}
	t.ProxF(t.X, v, t.Rho)
	for i := range v {
		v[i] = t.X[i] + t.U[i]
	}
	t.ProxG(t.Z, v, t.Rho)
	for i := range t.U {
		t.U[i] += t.X[i] - t.Z[i]
	}
}

// Solve iterates until the consensus gap ||x-z||_inf falls below tol or
// maxIter is reached, returning the iterations used and whether it
// converged.
func (t *TwoBlock) Solve(maxIter int, tol float64) (int, bool) {
	for it := 1; it <= maxIter; it++ {
		t.Step()
		var gap float64
		for i := range t.X {
			d := t.X[i] - t.Z[i]
			if d < 0 {
				d = -d
			}
			if d > gap {
				gap = d
			}
		}
		if gap <= tol {
			return it, true
		}
	}
	return maxIter, false
}
