package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
)

// Op is a proximal operator attached to a function node: the x-update
// task of the paper's Algorithm 2, line 3. An operator may also
// implement RunEvaluator, which evaluates a run of consecutive nodes
// that hold it in one call.
type Op interface {
	// Eval computes
	//
	//	x = argmin_s  f(s) + sum_k rho[k]/2 * ||s_k - n_k||^2
	//
	// where s has one block of d doubles per incident edge, in the order
	// the edges were attached by AddNode. x and n are deg*d long; edge
	// block k occupies [k*d : (k+1)*d]. rho has one entry per edge.
	//
	// Implementations must treat components beyond their natural
	// dimension ("padding") as absent: the exact prox of a function that
	// does not depend on a component is the identity on that component,
	// so padded outputs must copy the corresponding n values.
	//
	// Eval must be safe for concurrent use across distinct function
	// nodes (it may not mutate shared state without synchronization).
	Eval(x, n, rho []float64, d int)

	// Work estimates the computational cost of one Eval for the GPU
	// simulator's cost model: deg is the node degree, d the block size.
	Work(deg, d int) Work
}

// RunEvaluator is optionally implemented by operators that evaluate a
// run of consecutive function nodes in one call. EvalRun must write
// exactly the bits that count Eval calls, one per node in node order,
// would write. The nodes hold equal operator values and have the same
// degree deg, and their edges are contiguous: node c's blocks are
// x[c*deg*d : (c+1)*deg*d] (and likewise n), its rhos
// rho[c*deg : (c+1)*deg], so len(rho) = count*deg.
//
// Finalize finds the runs itself (see Runs), so a builder only adds
// nodes. It compares two operators only when their type implements
// RunEvaluator and the value is comparable, so an operator holding a
// slice never makes == panic.
type RunEvaluator interface {
	EvalRun(x, n, rho []float64, d, count int)
}

// Run is a range [Lo, Hi) of at least two consecutive function nodes
// that hold equal operator values implementing RunEvaluator and have
// the same degree; Op is that operator.
type Run struct {
	Lo, Hi int
	Op     RunEvaluator
}

// Work is a device-independent cost estimate for one task: floating-point
// operations and global-memory words touched. The gpusim package converts
// Work into simulated cycles; the serial cost model uses the same numbers,
// so relative GPU-vs-CPU results never depend on inconsistent meters.
type Work struct {
	Flops    float64 // floating point operations
	MemWords float64 // global memory words read+written
	Branchy  float64 // in [0,1]: fraction of data-dependent branching
	// (drives the warp-divergence penalty)
	Serial float64 // in [0,1]: fraction of flops on a dependent chain
	// (sqrt/div/back-substitution latency that a GPU lane cannot
	// pipeline; drives the latency-bound cost of heavy operators)
}

// Add returns the sum of two work estimates.
func (w Work) Add(o Work) Work {
	b := w.Branchy
	if o.Branchy > b {
		b = o.Branchy
	}
	s := w.Serial
	if o.Serial > s {
		s = o.Serial
	}
	return Work{Flops: w.Flops + o.Flops, MemWords: w.MemWords + o.MemWords, Branchy: b, Serial: s}
}

// Graph is the factor-graph plus all ADMM state. Build it with New and
// AddNode, then call Finalize before running any engine.
type Graph struct {
	d int // doubles per edge (paper: number_of_dims_per_edge)

	// Function side. Edges are created contiguously per function node:
	// the edges of function a are FEdgeStart[a] .. FEdgeStart[a+1].
	ops        []Op
	fEdgeStart []int

	// Edge side: variable node per edge, in creation order.
	edgeVar []int

	// Variable side CSR, built by Finalize: the edges incident to
	// variable b are vEdges[vEdgeStart[b]:vEdgeStart[b+1]].
	vEdgeStart []int
	vEdges     []int

	numVars int

	// Per-edge ADMM parameters.
	Rho, Alpha []float64

	// ADMM state. X, U, N are edge-major (numEdges*d); Z is
	// variable-major (numVars*d).
	X, U, N []float64
	Z       []float64
	// M is the edge-major m = x + u message array of the five-phase
	// schedule. The fused schedule every product executor runs forms m
	// in registers and never reads it, so M does not exist (nil) until a
	// five-phase consumer asks for it through EnsureM.
	M []float64

	// Reusable engine workspace (ScratchZ, ScratchEdgeBuf): lazily
	// allocated once so the steady-state iteration loop — residual
	// checks, objective evaluation — performs no per-call allocations.
	scratchZ    []float64
	scratchEdge []float64
	maxFuncDeg  int

	finalized bool

	// runs lists the maximal runs Finalize found, in node order; empty
	// when no two neighbouring nodes qualify.
	runs []Run
}

// New returns an empty factor-graph whose edges each carry d doubles.
func New(d int) *Graph {
	if d <= 0 {
		panic("graph: dims per edge must be positive")
	}
	return &Graph{d: d, fEdgeStart: []int{0}}
}

// D returns the number of doubles per edge.
func (g *Graph) D() int { return g.d }

// NumFunctions returns |F|.
func (g *Graph) NumFunctions() int { return len(g.ops) }

// NumVariables returns |V|.
func (g *Graph) NumVariables() int { return g.numVars }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edgeVar) }

// Finalized reports whether Finalize has been called.
func (g *Graph) Finalized() bool { return g.finalized }

// AddNode appends a function node with proximal operator op, connected to
// the given variable-node indices (paper: addNode). Variable nodes are
// created implicitly: referencing index i ensures variables 0..i exist.
// It returns the new function node's index.
//
// The order of vars fixes the edge-block order seen by op.Eval.
func (g *Graph) AddNode(op Op, vars ...int) int {
	if g.finalized {
		panic("graph: AddNode after Finalize")
	}
	if op == nil {
		panic("graph: nil Op")
	}
	if len(vars) == 0 {
		panic("graph: function node needs at least one variable")
	}
	seen := make(map[int]bool, len(vars))
	for _, v := range vars {
		if v < 0 {
			panic(fmt.Sprintf("graph: negative variable index %d", v))
		}
		if seen[v] {
			panic(fmt.Sprintf("graph: duplicate variable %d on one function node", v))
		}
		seen[v] = true
		if v+1 > g.numVars {
			g.numVars = v + 1
		}
		g.edgeVar = append(g.edgeVar, v)
	}
	g.ops = append(g.ops, op)
	g.fEdgeStart = append(g.fEdgeStart, len(g.edgeVar))
	return len(g.ops) - 1
}

// Finalize builds the variable-side adjacency and allocates the
// parameters and the state arrays the fused iteration reads (X, U, N,
// Z); M waits for EnsureM. After Finalize the topology is immutable. It
// returns an error if any variable node ended up with no incident edge
// (the z-update would divide by zero).
func (g *Graph) Finalize() error {
	if g.finalized {
		return errors.New("graph: already finalized")
	}
	nE := g.NumEdges()
	if nE == 0 {
		return errors.New("graph: empty graph")
	}
	// Count degrees, then fill CSR.
	deg := make([]int, g.numVars)
	for _, v := range g.edgeVar {
		deg[v]++
	}
	for b, dg := range deg {
		if dg == 0 {
			return fmt.Errorf("graph: variable node %d has no incident edges", b)
		}
	}
	g.vEdgeStart = make([]int, g.numVars+1)
	for b := 0; b < g.numVars; b++ {
		g.vEdgeStart[b+1] = g.vEdgeStart[b] + deg[b]
	}
	g.vEdges = make([]int, nE)
	next := make([]int, g.numVars)
	copy(next, g.vEdgeStart[:g.numVars])
	for e, v := range g.edgeVar {
		g.vEdges[next[v]] = e
		next[v]++
	}

	g.Rho = make([]float64, nE)
	g.Alpha = make([]float64, nE)
	for i := range g.Rho {
		g.Rho[i] = 1
		g.Alpha[i] = 1
	}
	g.X = make([]float64, nE*g.d)
	g.U = make([]float64, nE*g.d)
	g.N = make([]float64, nE*g.d)
	g.Z = make([]float64, g.numVars*g.d)
	g.findRuns()
	g.finalized = true
	return nil
}

// findRuns records every maximal run of two or more nodes in g.runs.
func (g *Graph) findRuns() {
	for a := 0; a < len(g.ops); {
		b := a + 1
		if ev, ok := runOp(g.ops[a]); ok {
			deg := g.FuncDegree(a)
			for b < len(g.ops) && g.FuncDegree(b) == deg {
				if _, ok := runOp(g.ops[b]); !ok || g.ops[b] != g.ops[a] {
					break
				}
				b++
			}
			if b-a >= 2 {
				g.runs = append(g.runs, Run{Lo: a, Hi: b, Op: ev})
			}
		}
		a = b
	}
}

// runOp returns op as a RunEvaluator when it implements one and == may
// compare it: a value of a non-comparable type, or one holding such a
// value behind an interface, would make == panic.
func runOp(op Op) (RunEvaluator, bool) {
	ev, ok := op.(RunEvaluator)
	return ev, ok && reflect.ValueOf(op).Comparable()
}

// Runs returns the runs Finalize found, in node order. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Runs() []Run { return g.runs }

// EnsureM returns M, allocating it zeroed (NumEdges*D doubles) on the
// first call. Its callers are the five-phase consumers — UpdateMRange
// (and through it the serial oracle, TWA, async and the simulated
// devices) and the naive ReferenceBackend — and each overwrites M from
// X and U before reading it, so the zero fill is never observed. The
// first call writes g.M and must not race with another user of the
// graph; every caller today is single-threaded.
func (g *Graph) EnsureM() []float64 {
	if g.M == nil {
		g.mustFinal()
		g.M = make([]float64, g.NumEdges()*g.d)
	}
	return g.M
}

// maxFuncDegree returns (computing lazily on first use) the largest
// function-node degree. A finalized graph has no zero-degree functions,
// so 0 means "not yet computed".
func (g *Graph) maxFuncDegree() int {
	if g.maxFuncDeg == 0 {
		for a := 0; a < len(g.ops); a++ {
			if dg := g.fEdgeStart[a+1] - g.fEdgeStart[a]; dg > g.maxFuncDeg {
				g.maxFuncDeg = dg
			}
		}
	}
	return g.maxFuncDeg
}

// ScratchZ returns a reusable variable-major workspace the same length
// as Z (the engine's zPrev for residual evaluation). The buffer is owned
// by the graph and allocated once; callers must not retain it across
// concurrent engine runs on the same graph — but concurrent runs already
// race on Z itself, so this adds no new constraint.
func (g *Graph) ScratchZ() []float64 {
	g.mustFinal()
	if len(g.scratchZ) != len(g.Z) {
		g.scratchZ = make([]float64, len(g.Z))
	}
	return g.scratchZ
}

// ScratchEdgeBuf returns a reusable zero-length buffer whose capacity
// covers the largest function neighborhood (MaxFuncDegree * D doubles) —
// the gather workspace for objective evaluation. Same ownership rules as
// ScratchZ.
func (g *Graph) ScratchEdgeBuf() []float64 {
	g.mustFinal()
	if need := g.maxFuncDegree() * g.d; cap(g.scratchEdge) < need {
		g.scratchEdge = make([]float64, 0, need)
	}
	return g.scratchEdge[:0]
}

// Bytes prices the graph's own arrays — topology, parameters, ADMM
// state (M once allocated), scratch and the run table — from their
// capacities, plus one interface value per operator. What an operator
// owns behind that interface is its builder's to add (see the workload
// packages' Problem.Bytes).
func (g *Graph) Bytes() int64 {
	words := cap(g.fEdgeStart) + cap(g.edgeVar) + cap(g.vEdgeStart) + cap(g.vEdges) +
		cap(g.Rho) + cap(g.Alpha) + cap(g.X) + cap(g.M) + cap(g.U) + cap(g.N) + cap(g.Z) +
		cap(g.scratchZ) + cap(g.scratchEdge) + 2*cap(g.ops) + 4*cap(g.runs)
	return 8 * int64(words)
}

// EncodedSize returns the size in bytes of g's host-to-device image: the
// paper's copyGraphFromCPUtoGPU materializes the topology, parameters and
// all ADMM state in GPU global memory, and internal/gpusim charges a
// modeled PCIe transfer time proportional to this size (paper: up to
// 450 s for the N=5000 packing graph). The image holds M whether or not
// this graph allocated it.
func (g *Graph) EncodedSize() int {
	g.mustFinal()
	nF, nV, nE, d := g.NumFunctions(), g.NumVariables(), g.NumEdges(), g.d
	const header = 5 * 8              // magic, d and the three counts
	ints := nF + 1 + nE + nV + 1 + nE // fEdgeStart, edgeVar, vEdgeStart, vEdges
	floats := 2*nE + 4*nE*d + nV*d    // Rho, Alpha; X, M, U, N; Z
	return header + 8*(ints+floats)
}

// mustFinal panics if the graph has not been finalized.
func (g *Graph) mustFinal() {
	if !g.finalized {
		panic("graph: operation requires Finalize")
	}
}

// Op returns the proximal operator of function node a.
func (g *Graph) Op(a int) Op { return g.ops[a] }

// FuncEdges returns the half-open edge index range [lo, hi) of function
// node a. Edge blocks of a in X/M/U/N are [lo*d : hi*d).
func (g *Graph) FuncEdges(a int) (lo, hi int) {
	return g.fEdgeStart[a], g.fEdgeStart[a+1]
}

// FuncDegree returns the number of edges of function node a.
func (g *Graph) FuncDegree(a int) int { return g.fEdgeStart[a+1] - g.fEdgeStart[a] }

// EdgeVar returns the variable node that edge e connects to.
func (g *Graph) EdgeVar(e int) int { return g.edgeVar[e] }

// VarEdges returns the edge indices incident to variable node b. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) VarEdges(b int) []int {
	g.mustFinal()
	return g.vEdges[g.vEdgeStart[b]:g.vEdgeStart[b+1]]
}

// VarCSR returns the variable-side CSR whole: the edges of variable b
// are edges[start[b]:start[b+1]]. Both slices alias internal storage,
// must not be modified, and are nil before Finalize.
func (g *Graph) VarCSR() (start, edges []int) { return g.vEdgeStart, g.vEdges }

// VarDegree returns the number of edges incident to variable b.
func (g *Graph) VarDegree(b int) int {
	g.mustFinal()
	return g.vEdgeStart[b+1] - g.vEdgeStart[b]
}

// EdgeBlock returns the d-double block of edge e within an edge-major
// array (one of X, M, U, N).
func (g *Graph) EdgeBlock(arr []float64, e int) []float64 {
	return arr[e*g.d : (e+1)*g.d]
}

// VarBlock returns the d-double block of variable b within Z.
func (g *Graph) VarBlock(arr []float64, b int) []float64 {
	return arr[b*g.d : (b+1)*g.d]
}

// SetUniformParams sets every edge's rho and alpha (paper:
// initialize_RHOS_ALPHAS).
func (g *Graph) SetUniformParams(rho, alpha float64) {
	g.mustFinal()
	if rho <= 0 {
		panic("graph: rho must be positive")
	}
	if alpha <= 0 {
		panic("graph: alpha must be positive")
	}
	for i := range g.Rho {
		g.Rho[i] = rho
		g.Alpha[i] = alpha
	}
}

// InitRandom initializes X, M, U, N, Z uniformly at random in [lo, hi]
// (paper: initialize_X_N_Z_M_U_rand). A nil rng uses a fixed seed so
// experiments are reproducible by default. M's values are drawn whether
// or not M is allocated, so X, U, N and Z get the same bits either way.
func (g *Graph) InitRandom(lo, hi float64, rng *rand.Rand) {
	g.mustFinal()
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
	}
	span := hi - lo
	fill := func(v []float64) {
		for i := range v {
			v[i] = lo + span*rng.Float64()
		}
	}
	fill(g.X)
	if g.M != nil {
		fill(g.M)
	} else {
		for range g.NumEdges() * g.d {
			rng.Float64()
		}
	}
	fill(g.U)
	fill(g.N)
	fill(g.Z)
}

// InitZero zeroes all ADMM state (an absent M stays absent).
func (g *Graph) InitZero() {
	g.mustFinal()
	for _, v := range [][]float64{g.X, g.M, g.U, g.N, g.Z} {
		for i := range v {
			v[i] = 0
		}
	}
}

// State is a copy of every array a solve mutates (parameters and ADMM
// state), so a solve can be re-run from exactly where another started:
// the determinism contract — bit-identical iterates for a given
// configuration — only holds from the same starting state. An absent M
// is saved as nil and restores nothing: every consumer of M rewrites it
// before reading it.
type State [7][]float64

func (g *Graph) stateArrays() State {
	return State{g.Rho, g.Alpha, g.X, g.M, g.U, g.N, g.Z}
}

// SaveState copies g's current parameters and ADMM state.
func (g *Graph) SaveState() State {
	s := g.stateArrays()
	for i, a := range s {
		s[i] = append([]float64(nil), a...)
	}
	return s
}

// RestoreState writes a State taken from this graph back into it.
func (g *Graph) RestoreState(s State) {
	for i, a := range g.stateArrays() {
		copy(a, s[i])
	}
}

// Stats summarizes graph shape; used by schedulers, the GPU simulator's
// occupancy math, and tests that pin the paper's element-count formulas.
type Stats struct {
	Functions, Variables, Edges int
	D                           int
	MaxFuncDegree, MaxVarDegree int
	MeanFuncDegree              float64
	MeanVarDegree               float64
	// Elements is |F| + |V| + 3|E|: the total number of per-iteration
	// parallel tasks (x per function, z per variable, m/u/n per edge).
	Elements int
}

// Stats computes shape statistics.
func (g *Graph) Stats() Stats {
	g.mustFinal()
	s := Stats{
		Functions: g.NumFunctions(),
		Variables: g.NumVariables(),
		Edges:     g.NumEdges(),
		D:         g.d,
	}
	for a := 0; a < s.Functions; a++ {
		if dg := g.FuncDegree(a); dg > s.MaxFuncDegree {
			s.MaxFuncDegree = dg
		}
	}
	for b := 0; b < s.Variables; b++ {
		if dg := g.VarDegree(b); dg > s.MaxVarDegree {
			s.MaxVarDegree = dg
		}
	}
	s.MeanFuncDegree = float64(s.Edges) / float64(s.Functions)
	s.MeanVarDegree = float64(s.Edges) / float64(s.Variables)
	s.Elements = s.Functions + s.Variables + 3*s.Edges
	return s
}

// Validate performs consistency checks on the finalized graph, returning
// the first problem found. It is O(|E|) and intended for tests and for
// builders to call once after construction; it checks every index
// before it uses one.
func (g *Graph) Validate() error {
	if !g.finalized {
		return errors.New("graph: not finalized")
	}
	nE := g.NumEdges()
	if err := checkCSR("function", g.fEdgeStart, len(g.ops), nE); err != nil {
		return err
	}
	if err := checkCSR("variable", g.vEdgeStart, g.numVars, nE); err != nil {
		return err
	}
	if len(g.vEdges) != nE {
		return fmt.Errorf("graph: variable CSR has %d entries, have %d edges", len(g.vEdges), nE)
	}
	for e, v := range g.edgeVar {
		if v < 0 || v >= g.numVars {
			return fmt.Errorf("graph: edge %d references variable %d out of range", e, v)
		}
	}
	// Variable CSR must be the inverse of edgeVar: each variable lists
	// its own edges in increasing order, so, with the counts above, every
	// edge appears exactly once.
	for b := 0; b < g.numVars; b++ {
		prev := -1
		for _, e := range g.VarEdges(b) {
			if e <= prev || e >= nE || g.edgeVar[e] != b {
				return fmt.Errorf("graph: CSR mismatch at variable %d edge %d", b, e)
			}
			prev = e
		}
	}
	for a := range g.ops {
		if g.ops[a] == nil {
			return fmt.Errorf("graph: function %d has nil op", a)
		}
	}
	return nil
}

// checkCSR checks that start is a CSR offset array over n nodes covering
// nE edges with at least one edge per node.
func checkCSR(kind string, start []int, n, nE int) error {
	if len(start) != n+1 || start[0] != 0 || start[n] != nE {
		return fmt.Errorf("graph: %s CSR does not cover %d edges", kind, nE)
	}
	for i := 0; i < n; i++ {
		if start[i+1] <= start[i] {
			return fmt.Errorf("graph: %s node %d has no edges", kind, i)
		}
	}
	return nil
}

// VarDegreeHistogram returns a sorted list of (degree, count) pairs over
// variable nodes; the paper's Conclusion discusses how a heavy tail here
// throttles the z-update.
func (g *Graph) VarDegreeHistogram() [][2]int {
	g.mustFinal()
	counts := map[int]int{}
	for b := 0; b < g.numVars; b++ {
		counts[g.VarDegree(b)]++
	}
	out := make([][2]int, 0, len(counts))
	for d, c := range counts {
		out = append(out, [2]int{d, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// ReadSolution copies the consensus variable z_b into dst (length d) and
// returns dst; pass nil to allocate. This is the paper's "read the
// solution from z" step.
func (g *Graph) ReadSolution(b int, dst []float64) []float64 {
	g.mustFinal()
	if dst == nil {
		dst = make([]float64, g.d)
	}
	copy(dst, g.VarBlock(g.Z, b))
	return dst
}
