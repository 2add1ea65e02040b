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
// provides a fused two-pass schedule (fused.go): the x-update prox pass,
// a z gather that forms m = x + u in registers, and one edge sweep that
// merges the u- and n-updates. The fused path is bit-identical to the
// five-phase reference and is what every executor but the serial oracle
// runs; the five-loop form remains the reference (NewSerial) and the
// shape the GPU simulator's launch model reasons about.
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
// fixed-count run) and between blocks edits the graph above the
// Backend: it zeroes U's subnormal entries (flushSubnormals), which
// would otherwise slow every later z gather, and adaptRho may rescale
// Rho and U. Every executor continues from the same state, so the
// bit-identity contract is untouched; Iterate called directly never
// flushes. A backend holding state elsewhere (shard.Remote) takes each
// block whole, as one BlockRunner call that carries the previous
// block's edit in and the residual block's zPrev capture out. Phase
// times are one Stopwatch lap per phase boundary.
//
// # The residual check
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
	"sync"
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
// [lo, hi). Safe to call concurrently on disjoint ranges.
func UpdateXRange(g *graph.Graph, lo, hi int) {
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
				z[i] += r * m[i]
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
			u[i] += al * (x[i] - z[i])
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

// Backend runs ADMM iterations over a graph and accounts per-phase time.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Iterate runs iters full iterations, adding per-phase elapsed time
	// into phaseNanos. A non-nil error means the block did not complete
	// and g's state is unspecified (a lost worker process, see
	// shard.Remote); in-process executors always return nil.
	Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error
	// Close releases any persistent resources (workers).
	Close()
}

// BlockRunner is an optional Backend extension for executors keeping
// their own copy of the state (shard.Remote): Run hands it each block
// whole, so one call — one round trip — carries the block. edit is
// what Run did to Rho and U after the previous block (the zero Edit
// before the first); a non-nil zPrev, on a residual block, receives z
// as of iteration iters-1. Implementations must leave g and zPrev
// bit-identical to replaying edit on their own state (Edit.Apply), then
//
//	Iterate(g, iters-1, ...); copy(zPrev, g.Z); Iterate(g, 1, ...)
//
// or Iterate(g, iters, ...) with a nil zPrev. Between blocks only Run
// may edit such a graph. Every other backend runs Run's split form
// (iterateBlock).
type BlockRunner interface {
	RunBlock(g *graph.Graph, edit Edit, iters int, zPrev []float64, phaseNanos *[NumPhases]int64) error
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
	// when tolerances are set. Zero means every 10 iterations.
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

// phaseScratch recycles the per-Run phase-time accumulator. Passing
// &res.PhaseNanos into the Backend interface would force the whole
// Result to escape to the heap on every Run; a pooled array keeps the
// steady-state solve loop allocation-free.
var phaseScratch = sync.Pool{New: func() any { return new([NumPhases]int64) }}

// Run executes the message-passing ADMM on g. A backend's Iterate error
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
	phaseNanos := phaseScratch.Get().(*[NumPhases]int64)
	*phaseNanos = [NumPhases]int64{}
	runner, _ := backend.(BlockRunner)
	var edit Edit // Run's edit after the previous block
	adjusted := 0 // adaptRho's steps so far

	start := time.Now()
	done := 0
	var err error
	for done < opts.MaxIter {
		step := opts.MaxIter - done
		if needResiduals && step > every {
			step = every
		}
		if runner != nil {
			err = runner.RunBlock(g, edit, step, zPrev, phaseNanos)
		} else {
			err = iterateBlock(backend, g, step, zPrev, phaseNanos)
		}
		if err != nil {
			break
		}
		var sums checkSums
		if needResiduals {
			sums = checkPass(g, zPrev)
			res.Primal, res.Dual = sums.primal, sums.dual
		} else {
			flushSubnormals(g.U)
		}
		done += step
		edit = Edit{Flush: true}
		if opts.Adapt != nil {
			edit.Rescale = adaptRho(g, opts.Adapt, adjusted, res.Primal, res.Dual)
			if edit.Rescale != (Rescale{}) {
				adjusted++
				// U was rescaled, so the pass's sum of squares no longer
				// describes it; NaN sends the decision to the exact test.
				sums.uu = math.NaN()
			}
		}
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
	res.PhaseNanos = *phaseNanos
	phaseScratch.Put(phaseNanos)
	return res, err
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
// checkPass applies the same predicate in its pass.
func flushSubnormals(u []float64) {
	for i, v := range u {
		// Shifting out the sign leaves 0 for zero and at least 1<<53 for
		// normals, infinities and NaNs; the -1 wraps zero out of range.
		if math.Float64bits(v)<<1-1 < 1<<53-1 {
			u[i] = 0
		}
	}
}

// iterateBlock runs one block of step iterations on a backend that is
// not a BlockRunner. With a non-nil zPrev (a residual round) the
// block's last iteration runs separately, so that zPrev holds z as of
// iteration step-1 and the dual residual reflects one iteration's z
// movement, not the whole block's — residual-balancing rho adaptation
// is badly biased otherwise.
func iterateBlock(backend Backend, g *graph.Graph, step int, zPrev []float64, phaseNanos *[NumPhases]int64) error {
	if zPrev == nil {
		return backend.Iterate(g, step, phaseNanos)
	}
	if step > 1 {
		if err := backend.Iterate(g, step-1, phaseNanos); err != nil {
			return err
		}
	}
	copy(zPrev, g.Z)
	return backend.Iterate(g, 1, phaseNanos)
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
type serialBackend struct{ fused bool }

// NewSerial returns the serial reference backend (five-phase schedule).
func NewSerial() Backend { return serialBackend{} }

// NewSerialFused returns the serial backend on the fused two-pass
// schedule — bit-identical iterates, roughly a third less memory traffic
// on the streaming phases. This is what ExecutorSpec{Kind: "serial"}
// builds by default.
func NewSerialFused() Backend { return serialBackend{fused: true} }

func (b serialBackend) Name() string {
	if b.fused {
		return "serial-fused"
	}
	return "serial"
}
func (serialBackend) Close() {}

// Iterate runs each iteration's phases inline, one stopwatch lap each.
// On the fused schedule the m and n buckets stay zero: their work rides
// inside the z gather and the u/n sweep.
func (b serialBackend) Iterate(g *graph.Graph, iters int, phaseNanos *[NumPhases]int64) error {
	sw := StartStopwatch()
	if b.fused {
		for it := 0; it < iters; it++ {
			UpdateXRange(g, 0, g.NumFunctions())
			sw.Lap(&phaseNanos[PhaseX])
			UpdateZFusedRange(g, 0, g.NumVariables())
			sw.Lap(&phaseNanos[PhaseZ])
			UpdateUNRange(g, 0, g.NumEdges())
			sw.Lap(&phaseNanos[PhaseU])
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

var _ Backend = serialBackend{}
