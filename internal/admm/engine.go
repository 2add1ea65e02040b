// Package admm implements the message-passing ADMM on a factor-graph —
// the paper's Algorithm 2 and the core contribution of parADMM.
//
// One iteration of the reference path is five independent loops over
// graph elements, the shape that maps one-to-one onto the paper's
// OpenMP/CUDA kernel launches:
//
//	x-update: for each function node a:  x_(a,da) = Prox_{fa,rho}(n_(a,da))
//	m-update: for each edge (a,b):       m = x + u
//	z-update: for each variable node b:  z_b = sum rho*m / sum rho
//	u-update: for each edge (a,b):       u += alpha*(x - z_b)
//	n-update: for each edge (a,b):       n = z_b - u
//
// Because edges are stored contiguously per function node, the x-update
// needs no gather: each proximal operator reads and writes one contiguous
// block of the flat N and X arrays. The z-update gathers over the
// variable-side CSR; the u- and n-updates read one z block each.
//
// On CPUs the m-, u- and n-updates are pure streaming loops that
// re-traverse state an adjacent phase just produced, so the package also
// provides a fused schedule (fused.go): the x-update prox pass, then one
// sweep over variables that gathers each z with m = x + u formed in
// registers and runs the merged u- and n-updates over that variable's
// edges. The fused path is bit-identical to the five-phase reference and
// is what every executor but the serial oracle runs; the five-loop form
// remains the reference (NewSerial) and the shape the GPU simulator's
// launch model reasons about.
//
// The package provides several executors over identical kernels: Serial
// (the paper's optimized single-core C baseline, on either schedule —
// its five-phase form is the oracle everything else is compared
// against), ParallelFor (the paper's first, faster OpenMP strategy:
// fork-join loops per iteration), and Async (a randomized-activation
// asynchronous variant from the paper's future-work list). The paper's
// second strategy, persistent workers with barriers, is the sharded
// executor in internal/shard; the GPU path lives in internal/gpusim.
// Both reuse these kernels. A spec (ExecutorSpec, the products' only
// way to choose) names serial, sharded or auto; ParallelFor, Async and
// the simulated devices are built directly by the paper figures
// (internal/bench), the examples and the tests, and run through Run.
//
// Run drives a Backend in blocks (one per residual check, or one for a
// fixed-count run), one RunBlock call each, and between blocks edits the
// graph above the Backend: it zeroes U's subnormal entries
// (flushSubnormals), which would otherwise slow every later z gather,
// and adaptRho may rescale Rho and U. Every executor continues from the
// same state, so the bit-identity contract is untouched. The next Block
// carries that edit to a backend holding its state elsewhere
// (shard.Remote). Phase times are one Stopwatch lap per phase boundary.
//
// # The residual check
//
// A run that checks residuals (a tolerance or OnIteration) checks
// after its first iteration, then at every multiple of CheckEvery and at
// MaxIter (blockLen); an Adapt-only run skips the first of those, which
// nothing would read. A warm start that already meets
// its tolerances — every record of a bulk chain that re-solves a
// converged problem — costs one iteration. Every other run takes the
// same iterations, and ends on the same bits, as with its first check
// at CheckEvery: the extra boundary adds one flush, which changes
// nothing unless U holds a subnormal entry after iteration 1, and
// adaptRho steps only at multiples of CheckEvery and at MaxIter
// (adaptsAt), never at the extra check alone.
//
// A residual block ends with one pass over the edges in index order
// (checkPass) instead of four: it accumulates Residuals' two sums in
// Residuals' order, so Result.Primal and Dual keep their bits; it
// zeroes subnormal U as flushSubnormals would; and it sums x² and u²
// plainly on the way. A short pass sums z². The stopping test,
// converged, compares the residuals with absTol·√n + relTol·‖·‖ on
// linalg.Norm2's norms — overflow-safe, one division per element — and
// Run needs its verdict, not the norms, so it decides from the sums
// where they settle it (checkSums.converged):
//
//  1. A bracket for Norm2. Let S be the exact sum of squares of an
//     m-element vector and u = 2⁻⁵³. A plain sum in any order is
//     s = S(1+φ) with |φ| ≤ γ_m = mu/(1-mu): each term is one rounded
//     square and passes through at most m-1 rounded additions, all of
//     nonnegative terms. Norm2 keeps scale = max|v_i| exact and
//     ssq = Σ(v_i/scale)²; each element's term takes at most 4 roundings
//     of its own (its rounded ratio counts twice, squared; then the
//     product and the add) and at most 5 for each later element (a
//     rescale multiplies the sum by a rounded ratio twice, in two
//     rounded products, then adds 1), so
//     ssq = (S/scale²)(1+θ) with |θ| ≤ γ_{5m-1}, and Norm2 adds two
//     roundings (the square root and the product). Underflowing terms
//     add absolute errors below 2⁻¹⁰⁷⁴ each, negligible against
//     s ≥ 2⁻⁹⁰⁰ (against ssq ≥ 1 in Norm2), and s ≤ 2¹⁰⁰⁰ rules out
//     overflow in both. To first order Norm2(v) = fl(√s)·(1+η) with
//     |η| ≤ (3m+3)u; normBounds' (m+8)·2⁻⁵⁰ = 8(m+8)u covers η and the
//     two roundings of its own bounds with room to spare. Outside
//     2⁻⁹⁰⁰ ≤ s ≤ 2¹⁰⁰⁰ — NaN, ±Inf, zero, underflow — there is no
//     bracket.
//  2. A monotone threshold. tolerance(v) = fl(a + fl(relTol·v)), with
//     a = fl(absTol·√n), is monotone in v (each rounding is),
//     nondecreasing for relTol ≥ 0 and nonincreasing for relTol ≤ 0,
//     and never NaN while a and relTol are finite. With Norm2 in
//     [lo, hi] (a max of two norms in [max lo, max hi]) the exact
//     threshold lies between tolerance(lo) and tolerance(hi): a residual
//     at or below the smaller end passes the exact test, and one not at
//     or below the larger end — NaN included — fails it.
//  3. A fallback. Both residuals certainly pass: converged. Either
//     certainly fails: not. Anything else — a residual inside the band,
//     a vector with no bracket, a non-finite a or relTol, or a block
//     whose Adapt step rescaled U after the pass — calls converged
//     itself. Either way the verdict is converged's.
//
// Fixed-count runs have no residual block and keep flushSubnormals as
// their only pass.
package admm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// Phase identifies one of the five update kinds of Algorithm 2.
type Phase int

// The five phases, in execution order.
const (
	PhaseX Phase = iota
	PhaseM
	PhaseZ
	PhaseU
	PhaseN
	NumPhases
)

// String returns the paper's name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseX:
		return "x-update"
	case PhaseM:
		return "m-update"
	case PhaseZ:
		return "z-update"
	case PhaseU:
		return "u-update"
	case PhaseN:
		return "n-update"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseTasks returns the number of parallel tasks phase p has on g: |F|
// for x, |V| for z, |E| for m, u, n (the paper's kernel launch sizes).
func PhaseTasks(g *graph.Graph, p Phase) int {
	switch p {
	case PhaseX:
		return g.NumFunctions()
	case PhaseZ:
		return g.NumVariables()
	default:
		return g.NumEdges()
	}
}

// UpdateXRange evaluates the proximal operators of function nodes
// [lo, hi): each part of a run (graph.Runs) inside the range in one
// EvalRun call, every other node by its own Eval. Safe to call
// concurrently on disjoint ranges.
func UpdateXRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	a := lo
	for _, r := range g.Runs() {
		if r.Lo >= hi {
			break
		}
		rlo, rhi := max(r.Lo, a), min(r.Hi, hi)
		if rlo >= rhi {
			continue // the run ends before a
		}
		updateXNodes(g, a, rlo)
		elo, _ := g.FuncEdges(rlo)
		_, ehi := g.FuncEdges(rhi - 1)
		r.Op.EvalRun(g.X[elo*d:ehi*d], g.N[elo*d:ehi*d], g.Rho[elo:ehi], d, rhi-rlo)
		a = rhi
	}
	updateXNodes(g, a, hi)
}

// updateXNodes evaluates the proximal operators of function nodes
// [lo, hi) one Eval call each.
func updateXNodes(g *graph.Graph, lo, hi int) {
	d := g.D()
	for a := lo; a < hi; a++ {
		elo, ehi := g.FuncEdges(a)
		g.Op(a).Eval(g.X[elo*d:ehi*d], g.N[elo*d:ehi*d], g.Rho[elo:ehi], d)
	}
}

// UpdateMRange computes m = x + u for edges [lo, hi), allocating M
// first if nothing has asked for it yet (graph.EnsureM; that first call
// must not race with another).
func UpdateMRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	linalg.AddTo(g.EnsureM()[lo*d:hi*d], g.X[lo*d:hi*d], g.U[lo*d:hi*d])
}

// UpdateZRange computes the rho-weighted consensus average for variable
// nodes [lo, hi).
func UpdateZRange(g *graph.Graph, lo, hi int) {
	for b := lo; b < hi; b++ {
		z := g.VarBlock(g.Z, b)
		for i := range z {
			z[i] = 0
		}
		var rhoSum float64
		for _, e := range g.VarEdges(b) {
			r := g.Rho[e]
			rhoSum += r
			m := g.EdgeBlock(g.M, e)
			for i := range z {
				z[i] += float64(r * m[i])
			}
		}
		inv := 1 / rhoSum
		for i := range z {
			z[i] *= inv
		}
	}
}

// UpdateURange computes u += alpha*(x - z_b) for edges [lo, hi).
func UpdateURange(g *graph.Graph, lo, hi int) {
	d := g.D()
	for e := lo; e < hi; e++ {
		al := g.Alpha[e]
		x := g.EdgeBlock(g.X, e)
		u := g.EdgeBlock(g.U, e)
		z := g.VarBlock(g.Z, g.EdgeVar(e))
		for i := 0; i < d; i++ {
			u[i] += float64(al * (x[i] - z[i]))
		}
	}
}

// UpdateNRange computes n = z_b - u for edges [lo, hi).
func UpdateNRange(g *graph.Graph, lo, hi int) {
	d := g.D()
	for e := lo; e < hi; e++ {
		n := g.EdgeBlock(g.N, e)
		u := g.EdgeBlock(g.U, e)
		z := g.VarBlock(g.Z, g.EdgeVar(e))
		for i := 0; i < d; i++ {
			n[i] = z[i] - u[i]
		}
	}
}

// Backend runs ADMM iterations over a graph, one block per call.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// RunBlock runs one Block and reports its phase times. A non-nil
	// error means the block did not complete and g's state is
	// unspecified (a lost worker process, see shard.Remote); in-process
	// executors always return nil.
	RunBlock(g *graph.Graph, blk Block) (BlockReport, error)
	// Close releases any persistent resources (workers).
	Close()
}

// Block is one RunBlock call's work: Iters iterations, leaving g and a
// non-nil ZPrev bit-identical to SplitBlock's. Edit is what Run did to
// Rho and U after the previous block (the zero Edit before the first);
// Run has already applied it to g, so only a backend keeping its own
// copy of the state replays it (Edit.Apply). Between blocks only Run
// may edit such a graph. ZPrev receives z as of iteration Iters-1.
type Block struct {
	Iters int
	Edit  Edit
	ZPrev []float64
}

// BlockReport is what a block took: per-phase elapsed time (simulated
// device time on the simulated backends).
type BlockReport struct {
	PhaseNanos [NumPhases]int64
}

// SplitBlock is RunBlock for a backend that iterates g in place:
// iterate(g, n, phaseNanos) runs n iterations and adds each phase's
// time. With a non-nil ZPrev the block's last iteration runs
// separately, after the capture, so that the dual residual reflects one
// iteration's z movement, not the whole block's — residual-balancing
// rho adaptation is badly biased otherwise.
func SplitBlock(iterate func(*graph.Graph, int, *[NumPhases]int64) error, g *graph.Graph, blk Block) (rep BlockReport, err error) {
	n := blk.Iters
	if blk.ZPrev != nil {
		if err = iterate(g, n-1, &rep.PhaseNanos); err != nil {
			return rep, err
		}
		copy(blk.ZPrev, g.Z)
		n = 1
	}
	return rep, iterate(g, n, &rep.PhaseNanos)
}

// Edit is what Run did to Rho and U after a block: Flush zeroed U's
// subnormal entries, then a nonzero Rescale (adaptRho's step) ran.
type Edit struct {
	Flush   bool
	Rescale Rescale
}

// Rescale multiplies every rho by Factor and clamps it to [Min, Max].
type Rescale struct {
	Factor, Min, Max float64
}

// Check refuses a step adaptRho never takes: a factor or inverse that
// is not finite and positive, or bounds outside 0 < Min <= Max.
func (r Rescale) Check() error {
	if !(r.Factor > 0 && r.Min > 0 && r.Min <= r.Max) || math.IsInf(r.Factor, 1) || math.IsInf(1/r.Factor, 1) {
		return fmt.Errorf("admm: rescale by %g into [%g, %g]: want a finite positive factor and inverse, 0 < min <= max", r.Factor, r.Min, r.Max)
	}
	return nil
}

// Apply makes e on a run of edges — rho holds their rho, u their U
// blocks of d entries (nil: rho alone) — with Run's own arithmetic, so a
// replay is bit-identical. The rescale keeps each edge's y = rho*u: the
// scaled u = y/rho is multiplied by 1/Factor, or by rho_old/rho_new where
// the clamp changed the step.
func (e Edit) Apply(rho, u []float64, d int) {
	if e.Flush {
		flushSubnormals(u)
	}
	r := e.Rescale
	if r == (Rescale{}) {
		return
	}
	inv := 1 / r.Factor
	for i, old := range rho {
		scaled := old * r.Factor
		rho[i] = linalg.Clamp(scaled, r.Min, r.Max)
		if u == nil {
			continue
		}
		k := inv
		if rho[i] != scaled {
			k = old / rho[i]
		}
		for j := i * d; j < (i+1)*d; j++ {
			u[j] *= k
		}
	}
}

// Options configures Run.
type Options struct {
	// MaxIter is the iteration budget (required, > 0).
	MaxIter int
	// Backend executes iterations; nil means NewSerial().
	Backend Backend
	// AbsTol/RelTol control the standard ADMM stopping criterion. Zero
	// values disable convergence checking (fixed iteration count), which
	// is how the paper times its experiments.
	AbsTol, RelTol float64
	// CheckEvery is how often (in iterations) residuals are evaluated
	// when tolerances are set. Zero means every 10 iterations. A run
	// that checks also checks after its first iteration, so the checks
	// fall at 1, CheckEvery, 2·CheckEvery, … and at MaxIter; Adapt
	// steps only at the multiples of CheckEvery and at MaxIter.
	CheckEvery int
	// Adapt, if non-nil, enables residual-balancing rho adaptation.
	Adapt *AdaptConfig
	// OnIteration, if non-nil, is called after every residual check with
	// the current iteration count and residuals; return false to stop.
	// It must not write the graph: the stopping decision that follows
	// reads sums the check took before the call.
	OnIteration func(iter int, primal, dual float64) bool
}

// Result reports what Run did.
type Result struct {
	Iterations int
	Converged  bool
	// Primal and Dual are the last computed residuals (NaN if residual
	// checking was disabled).
	Primal, Dual float64
	// PhaseNanos is the accumulated per-phase execution time. For
	// simulated backends this is simulated device time.
	PhaseNanos [NumPhases]int64
	// Elapsed is total wall-clock time inside the backend.
	Elapsed time.Duration
	// Flushed reports that the pass after the last block zeroed a
	// subnormal entry of U, where N = z - u is stale until the next u/n
	// sweep. Finite reports that the last check's sums of squares of X,
	// U and Z were finite, which proves every entry finite; it is false
	// after a run that took no check or whose last block rescaled U.
	Flushed, Finite bool
}

// PhaseFractions returns each phase's share of total phase time,
// reproducing the paper's "% of time per iteration" breakdowns.
func (r Result) PhaseFractions() [NumPhases]float64 {
	var total int64
	for _, v := range r.PhaseNanos {
		total += v
	}
	var out [NumPhases]float64
	if total == 0 {
		return out
	}
	for i, v := range r.PhaseNanos {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Run executes the message-passing ADMM on g. A backend's RunBlock error
// ends the run at that block: Run returns it with the iterations
// completed before it, and g's state is whatever the backend left.
//
// Every block ends with one pass over the state. After a residual block
// it is checkPass — the flush, Residuals' exact sums and plain sums of
// squares in one sweep — and the stopping decision is taken from those
// sums where they prove it, by converged itself where they do not (the
// package doc has the proof); after a fixed-count block it is
// flushSubnormals.
func Run(g *graph.Graph, opts Options) (Result, error) {
	var res Result
	if !g.Finalized() {
		return res, errors.New("admm: graph not finalized")
	}
	if opts.MaxIter <= 0 {
		return res, fmt.Errorf("admm: MaxIter = %d, need > 0", opts.MaxIter)
	}
	backend := opts.Backend
	if backend == nil {
		backend = NewSerial()
		defer backend.Close()
	}
	check := opts.AbsTol > 0 || opts.RelTol > 0 || opts.OnIteration != nil
	needResiduals := check || opts.Adapt != nil
	every := opts.CheckEvery
	if every <= 0 {
		every = 10
	}
	var zPrev []float64
	if needResiduals {
		// Reusable per-graph scratch: repeated Runs on one graph (the
		// serving layer's steady state) allocate nothing here.
		zPrev = g.ScratchZ()
	}
	res.Primal, res.Dual = math.NaN(), math.NaN()
	var edit Edit // Run's edit after the previous block
	adjusted := 0 // adaptRho's steps so far

	start := time.Now()
	done := 0
	var err error
	var rep BlockReport // out of the loop: this Run keeps fused.go's kernels in place (scripts/layout.sh)
	for done < opts.MaxIter {
		step := blockLen(done, opts.MaxIter, every, needResiduals, check)
		if rep, err = backend.RunBlock(g, Block{Iters: step, Edit: edit, ZPrev: zPrev}); err != nil {
			break
		}
		for p := range res.PhaseNanos {
			res.PhaseNanos[p] += rep.PhaseNanos[p]
		}
		var sums checkSums
		if needResiduals {
			sums = checkPass(g, zPrev)
			res.Primal, res.Dual, res.Flushed = sums.primal, sums.dual, sums.flushed
		} else {
			res.Flushed = flushSubnormals(g.U)
		}
		done += step
		edit = Edit{Flush: true}
		if opts.Adapt != nil && adaptsAt(done, opts.MaxIter, every) {
			edit.Rescale = adaptRho(g, opts.Adapt, adjusted, res.Primal, res.Dual)
			if edit.Rescale != (Rescale{}) {
				adjusted++
				// U was rescaled, so the pass's sum of squares no longer
				// describes it; NaN sends the decision to the exact test.
				sums.uu = math.NaN()
			}
		}
		// A NaN or an infinity anywhere makes its sum NaN or +Inf (so does
		// an overflowing square, which only costs the caller a scan).
		res.Finite = needResiduals && sums.xx+sums.uu+sums.zz <= math.MaxFloat64
		if check {
			if opts.OnIteration != nil && !opts.OnIteration(done, res.Primal, res.Dual) {
				break
			}
			if sums.converged(g, opts.AbsTol, opts.RelTol) {
				res.Converged = true
				break
			}
		}
	}
	res.Iterations = done
	res.Elapsed = time.Since(start)
	return res, err
}

// blockLen is the length of the block Run starts after done of maxIter
// iterations. A fixed-count run is one block. A residual run's blocks
// end on multiples of every and at maxIter; one that checks (a
// tolerance or OnIteration) also ends its first block after one
// iteration, so a warm start that already meets its tolerances stops
// there: its checks fall at 1, every, 2·every, …. An Adapt-only run
// would read nothing at 1 (adaptsAt), so it takes no block there.
func blockLen(done, maxIter, every int, residuals, check bool) int {
	step := maxIter - done
	switch {
	case !residuals:
		return step
	case done == 0 && check:
		return min(step, 1)
	}
	return min(step, every-done%every)
}

// adaptsAt reports whether adaptRho may step at the check after done
// iterations: on the every grid and at maxIter only, so the check after
// iteration 1 leaves the iterations adaptive solves rescale at alone.
func adaptsAt(done, maxIter, every int) bool {
	return done%every == 0 || done == maxIter
}

// flushSubnormals zeroes the subnormal entries of u: Run's repair,
// between blocks, of a cost the kernels cannot afford to test for (the
// check inside the u/n sweep costs that sweep 21–32 %). A scaled dual
// that decays geometrically toward zero — an svm slack edge settled at
// x = z = 0 shrinks by 2^-1/2 per iteration — goes subnormal near
// iteration 2033 and ends at the smallest subnormal, which
// round-to-nearest maps to itself forever; from then on every r*(x+u)
// of the z gather takes a floating-point microcode assist. Zero is the
// limit the sequence was converging to. The pass edits g.U above the
// Backend, so every executor continues from the same state (a backend
// holding state elsewhere replays it, Edit.Apply) and iterates stay
// bit-identical across executors; n = z - u heals in the next u/n
// sweep. Run calls it after a fixed-count block; a residual block's
// checkPass applies the same predicate in its pass. It reports whether
// it zeroed an entry.
func flushSubnormals(u []float64) (flushed bool) {
	for i, v := range u {
		// Shifting out the sign leaves 0 for zero and at least 1<<53 for
		// normals, infinities and NaNs; the -1 wraps zero out of range.
		if math.Float64bits(v)<<1-1 < 1<<53-1 {
			u[i], flushed = 0, true
		}
	}
	return flushed
}

// Residuals computes the primal residual ||x - z||_2 (consensus
// violation over all edges) and the dual residual ||rho*(z - zPrev)||_2
// aggregated over edges, the message-passing analogues of the standard
// two-block residuals.
func Residuals(g *graph.Graph, zPrev []float64) (primal, dual float64) {
	d := g.D()
	var p, du float64
	for e := 0; e < g.NumEdges(); e++ {
		b := g.EdgeVar(e)
		x := g.EdgeBlock(g.X, e)
		z := g.Z[b*d : (b+1)*d]
		zp := zPrev[b*d : (b+1)*d]
		r := g.Rho[e]
		for i := 0; i < d; i++ {
			dv := x[i] - z[i]
			p += dv * dv
			sv := r * (z[i] - zp[i])
			du += sv * sv
		}
	}
	return math.Sqrt(p), math.Sqrt(du)
}

// converged is the stopping test: primal <= absTol*sqrt(n) +
// relTol*max(||x||, ||z||) and dual <= absTol*sqrt(n) + relTol*||u||,
// with n = |E|*d and every norm linalg.Norm2's.
func converged(g *graph.Graph, primal, dual, absTol, relTol float64) bool {
	if absTol <= 0 && relTol <= 0 {
		return false
	}
	a := absTerm(g, absTol)
	return primal <= tolerance(a, relTol, math.Max(linalg.Norm2(g.X), linalg.Norm2(g.Z))) &&
		dual <= tolerance(a, relTol, linalg.Norm2(g.U))
}

// Objective is a helper for tests and examples: it sums fa evaluated at
// the consensus point z for problems whose operators expose a Value
// method (see Valuer); operators without Value contribute zero.
func Objective(g *graph.Graph) float64 {
	d := g.D()
	var total float64
	// Per-graph scratch sized to the largest function neighborhood:
	// steady-state evaluation (residual callbacks, serve metrics) is
	// allocation-free after the first call.
	buf := g.ScratchEdgeBuf()
	for a := 0; a < g.NumFunctions(); a++ {
		v, ok := g.Op(a).(Valuer)
		if !ok {
			continue
		}
		lo, hi := g.FuncEdges(a)
		buf = buf[:0]
		for e := lo; e < hi; e++ {
			buf = append(buf, g.VarBlock(g.Z, g.EdgeVar(e))...)
		}
		total += v.Value(buf, d)
	}
	return total
}

// Valuer is implemented by proximal operators that can report the value
// of their underlying function at a point (same block layout as Eval's n).
type Valuer interface {
	Value(s []float64, d int) float64
}

// AdaptConfig tunes residual-balancing rho adaptation (He, Yang, Wang
// scheme, referenced by the paper via [9]'s improved update schemes):
// when the primal residual exceeds Mu times the dual residual, every
// edge rho is multiplied by Tau (and divided symmetrically in the
// opposite case). Proximal operators observe the new rho on the next
// x-update; cached factorizations refresh automatically.
type AdaptConfig struct {
	Mu  float64 // imbalance threshold, e.g. 10
	Tau float64 // multiplicative step, e.g. 2
	Min float64 // rho floor (default 1e-6)
	Max float64 // rho ceiling (default 1e6)
	// MaxAdjust caps the number of rho changes in one Run (0 means 50);
	// stopping adaptation eventually is what keeps the fixed-rho
	// convergence theory applicable to the tail of the run. Each Run
	// counts its own, so one config may serve many Runs, concurrent
	// ones included.
	MaxAdjust int
}

// adaptRho takes one adaptation step on g and returns it, or the zero
// Rescale when it takes none — as for any step Rescale.Check refuses,
// and once the Run has taken adjusted >= MaxAdjust steps.
func adaptRho(g *graph.Graph, c *AdaptConfig, adjusted int, primal, dual float64) Rescale {
	maxAdjust := c.MaxAdjust
	if maxAdjust <= 0 {
		maxAdjust = 50
	}
	if c.Mu <= 0 || adjusted >= maxAdjust {
		return Rescale{}
	}
	r := Rescale{Factor: c.Tau, Min: c.Min, Max: c.Max}
	if r.Min <= 0 {
		r.Min = 1e-6
	}
	if r.Max <= 0 {
		r.Max = 1e6
	}
	switch {
	case primal > c.Mu*dual:
	case dual > c.Mu*primal:
		r.Factor = 1 / c.Tau
	default: // balanced, or a NaN residual
		return Rescale{}
	}
	if r.Check() != nil {
		return Rescale{}
	}
	Edit{Rescale: r}.Apply(g.Rho, g.U, g.D())
	return r
}

// Serial is the single-core backend: the Go analogue of the paper's
// optimized serial C implementation, against which all speedups are
// measured.
type Serial struct{ fused bool }

// NewSerial returns the serial reference backend (five-phase schedule).
func NewSerial() Serial { return Serial{} }

// NewSerialFused returns the serial backend on the fused schedule, x
// then one sweep of z and u/n — bit-identical iterates, about two thirds
// less memory traffic on the streaming phases. This is what
// ExecutorSpec{Kind: "serial"} builds by default.
func NewSerialFused() Serial { return Serial{fused: true} }

func (b Serial) Name() string {
	if b.fused {
		return "serial-fused"
	}
	return "serial"
}
func (Serial) Close() {}

// RunBlock implements Backend: SplitBlock over Iterate, written out so
// that the report stays on the caller's stack.
func (b Serial) RunBlock(g *graph.Graph, blk Block) (rep BlockReport, _ error) {
	n := blk.Iters
	if blk.ZPrev != nil {
		b.Iterate(g, n-1, &rep.PhaseNanos)
		copy(blk.ZPrev, g.Z)
		n = 1
	}
	return rep, b.Iterate(g, n, &rep.PhaseNanos)
}

// Iterate runs each iteration's phases inline, one stopwatch lap each.
// On the fused schedule only x and z are timed: the m-message rides
// inside the z gather and the u/n updates inside the same sweep, so the
// m, u and n buckets stay zero.
func (b Serial) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	sw := StartStopwatch()
	if b.fused {
		for it := 0; it < iters; it++ {
			UpdateXRange(g, 0, g.NumFunctions())
			sw.Lap(&phaseNanos[PhaseX])
			UpdateZUNRange(g, 0, g.NumVariables())
			sw.Lap(&phaseNanos[PhaseZ])
		}
		return nil
	}
	for it := 0; it < iters; it++ {
		UpdateXRange(g, 0, g.NumFunctions())
		sw.Lap(&phaseNanos[PhaseX])
		UpdateMRange(g, 0, g.NumEdges())
		sw.Lap(&phaseNanos[PhaseM])
		UpdateZRange(g, 0, g.NumVariables())
		sw.Lap(&phaseNanos[PhaseZ])
		UpdateURange(g, 0, g.NumEdges())
		sw.Lap(&phaseNanos[PhaseU])
		UpdateNRange(g, 0, g.NumEdges())
		sw.Lap(&phaseNanos[PhaseN])
	}
	return nil
}

var _ Backend = Serial{}
