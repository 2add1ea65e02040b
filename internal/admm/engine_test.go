package admm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// buildAveraging builds a consensus problem: k quadratic nodes
// f_i(w) = 1/2 (w - a_i)^2 all attached to one scalar variable. The
// minimizer of the sum is mean(a).
func buildAveraging(t testing.TB, targets []float64) *graph.Graph {
	t.Helper()
	g := graph.New(1)
	for _, a := range targets {
		q, err := prox.NewQuadratic(linalg.Eye(1), []float64{-a})
		if err != nil {
			t.Fatal(err)
		}
		g.AddNode(q, 0)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	return g
}

func TestSerialConvergesToMean(t *testing.T) {
	targets := []float64{1, 2, 6}
	g := buildAveraging(t, targets)
	res, err := Run(g, Options{MaxIter: 500, AbsTol: 1e-10, RelTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if got, want := g.Z[0], 3.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("z = %g, want %g", got, want)
	}
	if res.Iterations >= 500 {
		t.Fatalf("converged flag set but used all iterations")
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.New(1)
	g.AddNode(prox.Identity{}, 0)
	if _, err := Run(g, Options{MaxIter: 1}); err == nil {
		t.Fatal("expected unfinalized-graph error")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{MaxIter: 0}); err == nil {
		t.Fatal("expected MaxIter error")
	}
}

// failingBackend is the serial backend until its failAt-th RunBlock
// call, which returns an error — what a lost worker process looks like
// to the engine.
type failingBackend struct {
	Backend
	calls, failAt int
}

var errWorkerLost = errors.New("worker lost")

func (b *failingBackend) RunBlock(g *graph.Graph, blk Block) (BlockReport, error) {
	b.calls++
	if b.calls == b.failAt {
		return BlockReport{}, errWorkerLost
	}
	return b.Backend.RunBlock(g, blk)
}

// TestRunReturnsIterateError: Run stops at the block whose RunBlock
// failed, returns that error with the iterations completed before it,
// and calls the backend no further — with and without residual checks.
// A checked run's blocks end at iterations 1, 10, 20, …, one RunBlock
// call each.
func TestRunReturnsIterateError(t *testing.T) {
	checked := Options{MaxIter: 40, AbsTol: 1e-30, CheckEvery: 10}
	for _, tc := range []struct {
		name      string
		opts      Options
		failAt    int
		wantIters int
	}{
		{"fixed-count", Options{MaxIter: 40}, 1, 0},
		{"residual-checked, block 1", checked, 1, 0},
		{"residual-checked, block 2", checked, 2, 1},
		{"residual-checked, block 3", checked, 3, 10},
	} {
		b := &failingBackend{Backend: NewSerialFused(), failAt: tc.failAt}
		tc.opts.Backend = b
		res, err := Run(buildAveraging(t, []float64{1, 2, 6}), tc.opts)
		if !errors.Is(err, errWorkerLost) {
			t.Fatalf("%s: Run returned %v, want the backend's error", tc.name, err)
		}
		if b.calls != tc.failAt {
			t.Fatalf("%s: %d RunBlock calls, want Run to stop at call %d", tc.name, b.calls, tc.failAt)
		}
		if res.Iterations != tc.wantIters || res.Converged {
			t.Fatalf("%s: result %+v, want %d completed iterations, not converged", tc.name, res, tc.wantIters)
		}
	}
}

func TestPhaseString(t *testing.T) {
	names := []string{"x-update", "m-update", "z-update", "u-update", "n-update"}
	for p, want := range names {
		if got := Phase(p).String(); got != want {
			t.Errorf("Phase(%d) = %q, want %q", p, got, want)
		}
	}
	if Phase(99).String() != "phase(99)" {
		t.Error("unknown phase string")
	}
}

func TestPhaseTasks(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2, 3})
	if PhaseTasks(g, PhaseX) != 3 || PhaseTasks(g, PhaseZ) != 1 || PhaseTasks(g, PhaseM) != 3 {
		t.Fatalf("task counts: x=%d z=%d m=%d",
			PhaseTasks(g, PhaseX), PhaseTasks(g, PhaseZ), PhaseTasks(g, PhaseM))
	}
}

// mixedGraph builds a moderately sized random graph mixing several
// operator types, for backend-equivalence and invariant tests.
func mixedGraph(t testing.TB, seed int64, nV, nF, d int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(d)
	for a := 0; a < nF; a++ {
		deg := 1 + rng.Intn(3)
		if deg > nV {
			deg = nV
		}
		vars := rng.Perm(nV)[:deg]
		var op graph.Op
		switch a % 5 {
		case 0:
			op = prox.Box{Lo: -1, Hi: 1, Dim: d}
		case 1:
			op = prox.L1{Lambda: 0.3, Dim: d}
		case 2:
			op = prox.Consensus{Dim: d}
		case 3:
			op = prox.SquaredNorm{C: 0.5, Dim: d}
		default:
			op = prox.NonNeg{Dim: d}
		}
		g.AddNode(op, vars...)
	}
	// Ensure every variable is referenced at least once.
	for v := 0; v < nV; v++ {
		g.AddNode(prox.SquaredNorm{C: 0.1, Dim: d}, v)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1.2, 0.9)
	g.InitRandom(-1, 1, rand.New(rand.NewSource(seed+1)))
	return g
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestBackendsProduceIdenticalIterates(t *testing.T) {
	const iters = 25
	ref := mixedGraph(t, 7, 13, 40, 2)
	var nanos [NumPhases]int64
	NewSerial().Iterate(ref, iters, &nanos)

	type mk struct {
		name string
		b    Backend
	}
	backends := []mk{
		{"parallel-for-4", NewParallelFor(4)},
		{"parallel-for-dynamic", &ParallelForBackend{Workers: 3, Dynamic: true}},
		{"reference", NewReference()},
	}
	pf := NewParallelFor(4)
	g0 := mixedGraph(t, 7, 13, 40, 2)
	pf.PrepareBalancedZ(g0)
	backends = append(backends, mk{"parallel-for-balanced-z", pf})

	for _, m := range backends {
		t.Run(m.name, func(t *testing.T) {
			g := mixedGraph(t, 7, 13, 40, 2)
			m.b.RunBlock(g, Block{Iters: iters})
			m.b.Close()
			// All backends implement the same sweep with the same
			// per-task arithmetic ordering; allow only tiny numerical
			// slack (the reference engine divides instead of multiplying
			// by a reciprocal in the z-update).
			if d := maxDiff(ref.Z, g.Z); d > 1e-12 {
				t.Fatalf("Z diverged from serial by %g", d)
			}
			if d := maxDiff(ref.X, g.X); d > 1e-12 {
				t.Fatalf("X diverged from serial by %g", d)
			}
			if d := maxDiff(ref.U, g.U); d > 1e-12 {
				t.Fatalf("U diverged from serial by %g", d)
			}
		})
	}
}

func TestZUpdateIsConvexCombination(t *testing.T) {
	g := mixedGraph(t, 3, 9, 25, 3)
	var nanos [NumPhases]int64
	NewSerial().Iterate(g, 5, &nanos)
	d := g.D()
	for b := 0; b < g.NumVariables(); b++ {
		for i := 0; i < d; i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, e := range g.VarEdges(b) {
				v := g.EdgeBlock(g.M, e)[i]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			z := g.VarBlock(g.Z, b)[i]
			if z < lo-1e-12 || z > hi+1e-12 {
				t.Fatalf("z[%d][%d]=%g outside incident m range [%g,%g]", b, i, z, lo, hi)
			}
		}
	}
}

func TestParallelForWorkerSweep(t *testing.T) {
	// Same result regardless of worker count.
	ref := mixedGraph(t, 11, 10, 30, 2)
	var nanos [NumPhases]int64
	NewSerial().Iterate(ref, 10, &nanos)
	for _, w := range []int{1, 2, 3, 8, 16} {
		g := mixedGraph(t, 11, 10, 30, 2)
		var ns [NumPhases]int64
		b := NewParallelFor(w)
		b.Iterate(g, 10, &ns)
		if d := maxDiff(ref.Z, g.Z); d > 0 {
			t.Fatalf("workers=%d: Z differs by %g", w, d)
		}
	}
}

func TestResidualsDecreaseOnConvexProblem(t *testing.T) {
	g := buildAveraging(t, []float64{-1, 5})
	var first, last float64
	calls := 0
	_, err := Run(g, Options{
		MaxIter:    200,
		CheckEvery: 10,
		OnIteration: func(iter int, primal, dual float64) bool {
			if calls == 0 {
				first = primal
			}
			last = primal
			calls++
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnIteration never called")
	}
	if last > first {
		t.Fatalf("primal residual grew: first %g, last %g", first, last)
	}
}

func TestOnIterationEarlyStop(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	res, err := Run(g, Options{
		MaxIter:     1000,
		CheckEvery:  5,
		OnIteration: func(iter int, primal, dual float64) bool { return iter < 20 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 20 {
		t.Fatalf("stopped at %d, want 20", res.Iterations)
	}
}

func TestPhaseFractionsSumToOne(t *testing.T) {
	g := mixedGraph(t, 1, 8, 20, 2)
	res, err := Run(g, Options{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.PhaseFractions()
	var sum float64
	for _, f := range fr {
		if f < 0 {
			t.Fatalf("negative fraction %v", fr)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %g", sum)
	}
	var zero Result
	if f := zero.PhaseFractions(); f != [NumPhases]float64{} {
		t.Fatalf("zero result fractions = %v", f)
	}
}

func TestAsyncConvergesToMean(t *testing.T) {
	targets := []float64{2, 4, 9}
	g := buildAveraging(t, targets)
	b := NewAsync(3)
	defer b.Close()
	res, err := Run(g, Options{MaxIter: 400, Backend: b, AbsTol: 1e-8, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Z[0], 5.0; math.Abs(got-want) > 1e-4 {
		t.Fatalf("async z = %g, want %g (res %+v)", got, want, res)
	}
}

func TestAdaptiveRhoConverges(t *testing.T) {
	g := buildAveraging(t, []float64{0, 10})
	// Deliberately bad initial rho.
	g.SetUniformParams(100, 1)
	rhoBefore := g.Rho[0]
	res, err := Run(g, Options{
		MaxIter: 2000, AbsTol: 1e-9, RelTol: 1e-9, CheckEvery: 5,
		Adapt: &AdaptConfig{Mu: 10, Tau: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Z[0]-5) > 1e-5 {
		t.Fatalf("adaptive run z = %g, want 5 (%+v)", g.Z[0], res)
	}
	if g.Rho[0] == rhoBefore {
		t.Log("rho unchanged; adaptation may legitimately not trigger, checking convergence only")
	}
}

func TestAdaptConfigClamps(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	cfg := &AdaptConfig{Mu: 0.1, Tau: 100, Min: 0.5, Max: 2}
	if _, err := Run(g, Options{MaxIter: 100, Adapt: cfg, CheckEvery: 1, AbsTol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Rho {
		if r < 0.5-1e-15 || r > 2+1e-15 {
			t.Fatalf("rho %g escaped clamp [0.5,2]", r)
		}
	}
}

// TestAdaptRescaleKeepsDualAtClamp: the rescale keeps every edge's
// unscaled dual y = rho*u. AdaptConfig{Mu: 10, Tau: 2, Min: 1} with the
// dual residual far above the primal one halves rho; on an edge at
// rho = 1 the floor holds it at 1, so u must stay 0.5 (y 0.5, not 1).
// An edge the clamp leaves alone keeps the 1/Factor product bit for bit.
func TestAdaptRescaleKeepsDualAtClamp(t *testing.T) {
	g := buildAveraging(t, []float64{1, 2})
	g.SetUniformParams(1, 1)
	g.Rho[1] = 4
	g.U[0], g.U[1] = 0.5, 0.3
	adaptRho(g, &AdaptConfig{Mu: 10, Tau: 2, Min: 1}, 0, 0, 1)
	if g.Rho[0] != 1 || g.U[0] != 0.5 {
		t.Errorf("clamped edge: rho %g, u %g; want 1, 0.5 (y = rho*u unchanged)", g.Rho[0], g.U[0])
	}
	if inv := 1 / 0.5; g.Rho[1] != 2 || g.U[1] != 0.3*inv {
		t.Errorf("free edge: rho %g, u %g; want 2, %g", g.Rho[1], g.U[1], 0.3*inv)
	}
}

// TestRunReportsEdits: Run hands the backend, with every block, the
// edit it made after the previous one — the zero Edit before
// the first block, then the flush always and the rescale when adaptRho
// fired, with the bounds it resolved — and replaying each edit with
// Edit.Apply on Rho and U as the previous block left them reproduces
// Run's bit for bit. An Adapt-only run checks nothing after iteration
// 1, so the blocks end at iterations 5, 10, …, 60 and the rescales land
// after 5, 10, ….
func TestRunReportsEdits(t *testing.T) {
	g := buildAveraging(t, []float64{0, 10})
	g.SetUniformParams(100, 1)
	b := &editRecorder{Backend: NewSerialFused(), state: snapshotRhoU(g)}
	if _, err := Run(g, Options{MaxIter: 60, CheckEvery: 5, Backend: b, Adapt: &AdaptConfig{Mu: 10, Tau: 2, Max: 200}}); err != nil {
		t.Fatal(err)
	}
	if len(b.edits) != 12 {
		t.Fatalf("%d edits reported for 12 blocks", len(b.edits))
	}
	if e := b.edits[0].edit; e != (Edit{}) {
		t.Errorf("first block: edit %+v, want the zero Edit", e)
	}
	var rescaled []int
	for i, r := range b.edits[1:] {
		if !r.edit.Flush {
			t.Errorf("block %d: edit %+v without the flush", i+1, r.edit)
		}
		if s := r.edit.Rescale; s != (Rescale{}) {
			rescaled = append(rescaled, r.at)
			if s.Min != 1e-6 || s.Max != 200 || s.Check() != nil {
				t.Errorf("block %d: rescale %+v, want resolved bounds [1e-6, 200]", i+1, s)
			}
		}
	}
	for i, r := range b.edits {
		for k, arr := range r.replayed {
			for n, v := range arr {
				if math.Float64bits(v) != math.Float64bits(r.run[k][n]) {
					t.Fatalf("block %d: replayed array %d [%d] = %v, Run's %v", i, k, n, v, r.run[k][n])
				}
			}
		}
	}
	if want := []int{5, 10, 15, 20, 25, 30, 45, 50, 55}; !slices.Equal(rescaled, want) {
		t.Errorf("rescaled after iterations %v, want %v", rescaled, want)
	}
}

// editRecorder is a backend over the fused serial one that keeps its
// own copy of Rho and U, as the previous block left them, and records
// each edit with that copy replayed and with Run's Rho and U.
type editRecorder struct {
	Backend
	state [2][]float64
	done  int // iterations run so far
	edits []recordedEdit
}

type recordedEdit struct {
	edit          Edit
	at            int // the iteration after which Run made edit
	replayed, run [2][]float64
}

func snapshotRhoU(g *graph.Graph) [2][]float64 {
	return [2][]float64{append([]float64(nil), g.Rho...), append([]float64(nil), g.U...)}
}

func (b *editRecorder) RunBlock(g *graph.Graph, blk Block) (BlockReport, error) {
	blk.Edit.Apply(b.state[0], b.state[1], g.D())
	b.edits = append(b.edits, recordedEdit{blk.Edit, b.done, b.state, snapshotRhoU(g)})
	b.done += blk.Iters
	rep, err := b.Backend.RunBlock(g, blk)
	b.state = snapshotRhoU(g)
	return rep, err
}

// adaptiveRun runs the averaging problem from a mis-tuned rho under
// cfg, whose MaxAdjust of 1 lets one rescale through per Run.
func adaptiveRun(t *testing.T, cfg *AdaptConfig) (Result, *graph.Graph) {
	t.Helper()
	g := buildAveraging(t, []float64{0, 10})
	g.SetUniformParams(100, 1)
	res, err := Run(g, Options{MaxIter: 60, CheckEvery: 5, AbsTol: 1e-12, Adapt: cfg})
	if err != nil {
		t.Error(err)
	}
	return res, g
}

// sameRun fails unless two runs ended with the same result and the same
// Rho, U and Z bits.
func sameRun(t *testing.T, a, b Result, ga, gb *graph.Graph) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Converged != b.Converged ||
		math.Float64bits(a.Primal) != math.Float64bits(b.Primal) || math.Float64bits(a.Dual) != math.Float64bits(b.Dual) {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
	for name, pair := range map[string][2][]float64{"Rho": {ga.Rho, gb.Rho}, "U": {ga.U, gb.U}, "Z": {ga.Z, gb.Z}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestAdaptConfigReusedAcrossRuns: each Run counts its own adaptation
// steps, so a config reused for a second Run on an identical graph
// gives bit-identical results — its MaxAdjust of 1 is not already spent.
func TestAdaptConfigReusedAcrossRuns(t *testing.T) {
	cfg := &AdaptConfig{MaxAdjust: 1, Mu: 10, Tau: 2}
	first, g1 := adaptiveRun(t, cfg)
	if g1.Rho[0] == 100 {
		t.Fatal("adaptation never fired")
	}
	second, g2 := adaptiveRun(t, cfg)
	sameRun(t, first, second, g1, g2)
}

// TestAdaptConfigSharedByConcurrentRuns: two concurrent Runs sharing
// one config race on nothing (run it under -race) and each matches a
// Run of its own.
func TestAdaptConfigSharedByConcurrentRuns(t *testing.T) {
	cfg := &AdaptConfig{MaxAdjust: 1, Mu: 10, Tau: 2}
	want, wg := adaptiveRun(t, &AdaptConfig{MaxAdjust: 1, Mu: 10, Tau: 2})
	var res [2]Result
	var gs [2]*graph.Graph
	var done sync.WaitGroup
	for i := range res {
		done.Add(1)
		go func() {
			defer done.Done()
			res[i], gs[i] = adaptiveRun(t, cfg)
		}()
	}
	done.Wait()
	for i := range res {
		sameRun(t, want, res[i], wg, gs[i])
	}
}

type valuedOp struct {
	prox.SquaredNorm
	c float64
}

func (v valuedOp) Value(s []float64, d int) float64 {
	return v.c / 2 * linalg.Norm2Sq(s)
}

func TestObjective(t *testing.T) {
	g := graph.New(1)
	g.AddNode(valuedOp{prox.SquaredNorm{C: 2, Dim: 1}, 2}, 0)
	g.AddNode(prox.Identity{}, 0) // contributes zero (no Valuer)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1, 1)
	g.InitZero()
	g.Z[0] = 3
	if got := Objective(g); math.Abs(got-9) > 1e-12 {
		t.Fatalf("Objective = %g, want 9", got)
	}
}

func TestTwoBlockLasso1D(t *testing.T) {
	// minimize |x| + 1/2 (x-3)^2; solution x = 2.
	proxF := func(dst, v []float64, rho float64) {
		dst[0] = linalg.SoftThreshold(v[0], 1/rho)
	}
	proxG := func(dst, v []float64, rho float64) {
		dst[0] = (3 + rho*v[0]) / (1 + rho)
	}
	tb, err := NewTwoBlock(1, 1, proxF, proxG)
	if err != nil {
		t.Fatal(err)
	}
	iters, ok := tb.Solve(5000, 1e-10)
	if !ok {
		t.Fatalf("two-block did not converge in %d iters", iters)
	}
	if math.Abs(tb.Z[0]-2) > 1e-6 {
		t.Fatalf("two-block z = %g, want 2", tb.Z[0])
	}
}

func TestTwoBlockValidation(t *testing.T) {
	f := func(dst, v []float64, rho float64) {}
	if _, err := NewTwoBlock(0, 1, f, f); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := NewTwoBlock(1, 0, f, f); err == nil {
		t.Fatal("expected rho error")
	}
	if _, err := NewTwoBlock(1, 1, nil, f); err == nil {
		t.Fatal("expected nil-prox error")
	}
}

func TestReferenceMatchesSerialExactly(t *testing.T) {
	// On the averaging problem the reference engine matches to near
	// machine precision over many iterations.
	g1 := buildAveraging(t, []float64{1, 5, 9})
	g2 := buildAveraging(t, []float64{1, 5, 9})
	var n1, n2 [NumPhases]int64
	NewSerial().Iterate(g1, 100, &n1)
	NewReference().Iterate(g2, 100, &n2)
	if d := maxDiff(g1.Z, g2.Z); d > 1e-12 {
		t.Fatalf("reference Z differs by %g", d)
	}
}

func TestBackendNames(t *testing.T) {
	if NewSerial().Name() != "serial" {
		t.Error("serial name")
	}
	if NewParallelFor(4).Name() != "parallel-for(4)" {
		t.Error("parallel-for name")
	}
	pf := &ParallelForBackend{Workers: 2, Dynamic: true}
	if pf.Name() != "parallel-for(2,dynamic)" {
		t.Error("dynamic name")
	}
	if NewSerialFused().Name() != "serial-fused" {
		t.Error("serial-fused name")
	}
	if NewAsync(1).Name() != "async-random-activation" {
		t.Error("async name")
	}
	if NewReference().Name() != "reference-naive" {
		t.Error("reference name")
	}
}

func TestNewParallelForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewParallelFor(0)
}
