package packing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
)

// referenceCollisionEval is CollisionOp.Eval as it stood before the
// squared-distance reject: every pair pays for math.Hypot. The operator
// must write exactly these bits for every input.
func referenceCollisionEval(x, n, rho []float64, d int) {
	// Gather inputs.
	c1x, c1y := n[0*d], n[0*d+1]
	r1 := n[1*d]
	c2x, c2y := n[2*d], n[2*d+1]
	r2 := n[3*d]
	// Pads: radius blocks carry one live component.
	x[1*d+1] = n[1*d+1]
	x[3*d+1] = n[3*d+1]

	dx, dy := c1x-c2x, c1y-c2y
	dist := math.Hypot(dx, dy)
	overlap := r1 + r2 - dist
	if overlap <= 0 {
		// Feasible: identity.
		x[0*d], x[0*d+1] = c1x, c1y
		x[1*d] = r1
		x[2*d], x[2*d+1] = c2x, c2y
		x[3*d] = r2
		return
	}
	// Unit direction from c2 toward c1; deterministic fallback for
	// coincident centers.
	var ux, uy float64
	if dist > 1e-300 {
		ux, uy = dx/dist, dy/dist
	} else {
		ux, uy = 1, 0
	}
	rc1, rr1, rc2, rr2 := rho[0], rho[1], rho[2], rho[3]
	alpha := overlap / (1/rc1 + 1/rc2 + 1/rr1 + 1/rr2)
	// Centers move apart along u; radii shrink.
	x[0*d] = c1x + alpha/rc1*ux
	x[0*d+1] = c1y + alpha/rc1*uy
	x[1*d] = r1 - alpha/rr1
	x[2*d] = c2x - alpha/rc2*ux
	x[2*d+1] = c2y - alpha/rc2*uy
	x[3*d] = r2 - alpha/rr2
}

// referenceCollisionOp is CollisionOp with the reference Eval and no
// EvalRun, so a graph holding it evaluates every pair by its own Eval.
type referenceCollisionOp struct{}

func (referenceCollisionOp) Eval(x, n, rho []float64, d int) { referenceCollisionEval(x, n, rho, d) }
func (referenceCollisionOp) Work(deg, d int) graph.Work      { return CollisionOp{}.Work(deg, d) }

// sentinelFilled returns k doubles that all hold a NaN no operator
// computes, so an output an implementation forgets to write shows.
func sentinelFilled(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = math.Float64frombits(0x7ff8_dead_beef_0001)
	}
	return out
}

// bitsDiff describes the first index where got and want differ in their
// bits ("" when none does).
func bitsDiff(got, want []float64) string {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("x[%d] = %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// collisionMismatch evaluates both implementations on one input, each
// into a sentinel-filled output, and describes the first output whose
// bits differ ("" when none does).
func collisionMismatch(n, rho []float64) string {
	got, want := sentinelFilled(4*Dims), sentinelFilled(4*Dims)
	CollisionOp{}.Eval(got, n, rho, Dims)
	referenceCollisionEval(want, n, rho, Dims)
	if msg := bitsDiff(got, want); msg != "" {
		return fmt.Sprintf("n=%v rho=%v: %s (reference)", n, rho, msg)
	}
	return ""
}

// runMismatch evaluates the pairs n holds back to back (four rhos each
// in rho) once as one run through EvalRun and once by a per-node Eval
// loop, each into a sentinel-filled output, and describes the first
// output whose bits differ ("" when none does).
func runMismatch(n, rho []float64) string {
	count := len(rho) / 4
	got, want := sentinelFilled(len(n)), sentinelFilled(len(n))
	CollisionOp{}.EvalRun(got, n, rho, Dims, count)
	for c := 0; c < count; c++ {
		CollisionOp{}.Eval(want[c*4*Dims:(c+1)*4*Dims], n[c*4*Dims:(c+1)*4*Dims], rho[c*4:c*4+4], Dims)
	}
	if msg := bitsDiff(got, want); msg != "" {
		return fmt.Sprintf("run of %d, n=%v rho=%v: %s (per-node Eval)", count, n, rho, msg)
	}
	return ""
}

// pair is one collision input: c1, r1, c2, r2 and the two pads.
func pair(c1x, c1y, r1, c2x, c2y, r2 float64) []float64 {
	return []float64{c1x, c1y, r1, 0.25, c2x, c2y, r2, -0.75}
}

// adversarialCollisionPairs is the table the reject's exactness argument
// (CollisionOp's doc comment) is checked on, case by case.
func adversarialCollisionPairs(rng *rand.Rand) [][]float64 {
	var out [][]float64
	// Touching within a few ulps, on both sides: the radius sum walks
	// across Hypot(dx, dy) one ulp at a time, as a single radius and as
	// two halves (halving is exact).
	for trial := 0; trial < 2000; trial++ {
		c1x, c1y := rng.Float64(), rng.Float64()
		c2x, c2y := rng.Float64()*math.Ldexp(1, rng.Intn(40)-20), rng.Float64()
		h := math.Hypot(c1x-c2x, c1y-c2y)
		s := h
		for k := 0; k < 4; k++ {
			s = math.Nextafter(s, math.Inf(-1))
		}
		for k := -4; k <= 4; k++ {
			out = append(out, pair(c1x, c1y, s, c2x, c2y, 0), pair(c1x, c1y, s/2, c2x, c2y, s/2))
			s = math.Nextafter(s, math.Inf(1))
		}
	}
	// Overlapping pairs and coincident centers (with and without radius).
	for trial := 0; trial < 200; trial++ {
		c1x, c1y, c2x, c2y := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		out = append(out,
			pair(c1x, c1y, 1+rng.Float64(), c2x, c2y, rng.Float64()),
			pair(c1x, c1y, rng.Float64(), c1x, c1y, rng.Float64()),
		)
	}
	out = append(out, pair(0.5, 0.5, 0, 0.5, 0.5, 0), pair(0, 0, 0, 0, 0, 1e-300))
	// s <= 1e-150, around it, and the pair that breaks the reject without
	// its guard: dx² and dy² each round up to the smallest subnormal, so
	// dx*dx+dy*dy is two of them, while s*s rounds down to one although
	// Hypot(dx, dy) < s.
	u := math.Ldexp(1, -537) // u*u is the smallest subnormal
	out = append(out,
		pair(math.Sqrt(0.51)*u, math.Sqrt(0.51)*u, math.Sqrt(1.1)*u, 0, 0, 0),
		pair(math.Sqrt(0.51)*u, -math.Sqrt(0.51)*u, math.Sqrt(1.1)*u/2, 0, 0, math.Sqrt(1.1)*u/2),
	)
	for _, s := range []float64{1e-150, math.Nextafter(1e-150, 1), math.Nextafter(1e-150, 0), 1e-151, 1e-160, 1e-300, 5e-324} {
		for _, dx := range []float64{0, s / 3, s * 0.999, s, s * 1.001, 2 * s, 1e-140, 1} {
			out = append(out, pair(dx, 0, s, 0, 0, 0), pair(dx, dx, s/2, 0, 0, s/2))
		}
	}
	// Negative radii, apart and not.
	for _, r := range [][2]float64{{-1, 0.5}, {-0.5, -0.5}, {-1e-300, 0}, {math.Inf(-1), 1}} {
		out = append(out, pair(0, 0, r[0], 3, 4, r[1]), pair(0, 0, r[0], 0.1, 0, r[1]))
	}
	// Subnormal deltas.
	for _, dx := range []float64{5e-324, 1e-320, 2.2e-308} {
		for _, s := range []float64{0, 5e-324, 1e-310, 1e-160, 1} {
			out = append(out, pair(dx, 0, s, 0, 0, 0), pair(0, 0, s, dx, -dx, 0))
		}
	}
	// |dx| near 1e154, where dx*dx leaves the finite range, and 1e200.
	big := math.Sqrt(math.MaxFloat64)
	for _, dx := range []float64{1e154, big, math.Nextafter(big, 0), math.Nextafter(big, math.Inf(1)), 1.5e154, 1e200} {
		for _, s := range []float64{1, dx * 0.5, dx * (1 - 1e-15), dx, dx * (1 + 1e-15), 1.3e154, big, 1e200} {
			out = append(out, pair(dx, 0, s, 0, 0, 0), pair(dx/2, dx/2, s, -dx/2, -dx/2, 0), pair(dx, dx, s/2, 0, 0, s/2))
		}
	}
	// ±Inf and NaN in every slot of an apart and an overlapping pair.
	for _, base := range [][]float64{pair(0, 0, 0.1, 3, 4, 0.2), pair(0, 0, 1, 0.5, 0, 1)} {
		for i := range base {
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				p := append([]float64(nil), base...)
				p[i] = v
				out = append(out, p)
			}
		}
	}
	return out
}

// TestCollisionEvalMatchesReference pins the squared-distance reject to
// the Hypot-only operator it short-cuts: every output bit, pads
// included, on random pairs and on the adversarial table. Mutations
// this must catch: a margin of 0 (touching pairs) and a predicate
// without the s > 1e-150 guard (the subnormal pair).
func TestCollisionEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	check := func(n []float64) {
		t.Helper()
		for _, rho := range collisionRhos {
			if msg := collisionMismatch(n, rho); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	for trial := 0; trial < 20000; trial++ {
		check(pair(rng.Float64(), rng.Float64(), 0.3*rng.Float64(), rng.Float64(), rng.Float64(), 0.3*rng.Float64()))
	}
	for _, n := range adversarialCollisionPairs(rng) {
		check(n)
	}
}

// collisionRhos are the per-pair rho vectors the operator tests use:
// uniform, unequal, and non-finite, zero and negative entries.
var collisionRhos = [][]float64{{1, 1, 1, 1}, {2, 0.5, 3, 0.25}, {math.Inf(1), 1, 0, -1}, {math.NaN(), 1, 1, 1}}

// TestCollisionRunMatchesEval pins EvalRun to per-node Eval, every bit
// of every output, NaN payloads and pads included: on the adversarial
// table cut into runs of 1–9 pairs, on random runs of 1–9 pairs that
// mix certain rejects with overlaps, and through admm.UpdateXRange on
// every [lo, hi) of a graph whose runs sit between nodes without one,
// so a range boundary falls inside a run, against a per-node loop.
// Mutations this must catch: a reject that copies fewer than the
// pair's eight doubles, a run that skips or repeats a pair, and a
// range clipped to the wrong end of a run.
func TestCollisionRunMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	check := func(pairs [][]float64) {
		t.Helper()
		var n, rho []float64
		for _, p := range pairs {
			n = append(n, p...)
			rho = append(rho, collisionRhos[rng.Intn(len(collisionRhos))]...)
		}
		if msg := runMismatch(n, rho); msg != "" {
			t.Fatal(msg)
		}
	}
	for adv := adversarialCollisionPairs(rng); len(adv) > 0; {
		k := min(1+rng.Intn(9), len(adv))
		check(adv[:k])
		adv = adv[k:]
	}
	for trial := 0; trial < 5000; trial++ {
		pairs := make([][]float64, 1+rng.Intn(9))
		for i := range pairs {
			pairs[i] = pair(rng.Float64(), rng.Float64(), 0.3*rng.Float64(), rng.Float64(), rng.Float64(), 0.3*rng.Float64())
		}
		check(pairs)
	}

	// Nodes 1–7 and 9–11 are runs of pairs among six circles; the wall
	// and radius nodes around them have none.
	g := graph.New(Dims)
	wall := WallOp{Wall: UnitTriangle().Walls[0]}
	g.AddNode(wall, centerVar(0), radiusVar(0))
	for k := 0; k < 10; k++ {
		if k == 7 {
			g.AddNode(RadiusOp{Delta: 0.5}, radiusVar(1))
		}
		i, j := k%6, (k+1+k/6)%6
		g.AddNode(CollisionOp{}, centerVar(i), radiusVar(i), centerVar(j), radiusVar(j))
	}
	g.AddNode(wall, centerVar(5), radiusVar(5))
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if runs := g.Runs(); len(runs) != 2 || runs[0].Lo != 1 || runs[0].Hi != 8 || runs[1].Lo != 9 || runs[1].Hi != 12 {
		t.Fatalf("runs %+v, want [1, 8) and [9, 12)", runs)
	}
	for i := range g.N {
		g.N[i] = rng.Float64() * 0.6 // radii up to 0.6 among centers in the unit square: some pairs overlap
	}
	for e := range g.Rho {
		g.Rho[e] = 0.6 + rng.Float64()
	}
	d, nF := g.D(), g.NumFunctions()
	for lo := 0; lo <= nF; lo++ {
		for hi := lo; hi <= nF; hi++ {
			copy(g.X, sentinelFilled(len(g.X)))
			admm.UpdateXRange(g, lo, hi)
			want := sentinelFilled(len(g.X))
			for a := lo; a < hi; a++ {
				elo, ehi := g.FuncEdges(a)
				g.Op(a).Eval(want[elo*d:ehi*d], g.N[elo*d:ehi*d], g.Rho[elo:ehi], d)
			}
			if msg := bitsDiff(g.X, want); msg != "" {
				t.Fatalf("UpdateXRange(%d, %d): %s", lo, hi, msg)
			}
		}
	}
}

// FuzzCollisionEval compares the operator with the reference on
// arbitrary float64 bits in every input slot, and EvalRun with per-node
// Eval on the decoded pair as the middle of a three-pair run between a
// pair the reject decides and an overlapping one.
func FuzzCollisionEval(f *testing.F) {
	u := math.Ldexp(1, -537)
	for _, n := range [][]float64{
		pair(0, 0, 0.1, 3, 4, 0.2),
		pair(0, 0, 1, 0.5, 0, 1),
		pair(math.Sqrt(0.51)*u, math.Sqrt(0.51)*u, math.Sqrt(1.1)*u, 0, 0, 0),
		pair(1e154, 0, 1.3e154, 0, 0, 0),
		pair(math.Inf(1), math.NaN(), 1, 0, 0, 1),
	} {
		f.Add(n[0], n[1], n[2], n[3], n[4], n[5], n[6], n[7], 1.0, 1.0, 1.0, 1.0)
	}
	f.Fuzz(func(t *testing.T, c1x, c1y, r1, p1, c2x, c2y, r2, p2, rc1, rr1, rc2, rr2 float64) {
		n := []float64{c1x, c1y, r1, p1, c2x, c2y, r2, p2}
		if msg := collisionMismatch(n, []float64{rc1, rr1, rc2, rr2}); msg != "" {
			t.Fatal(msg)
		}
		run := append(append(pair(0, 0, 0.1, 3, 4, 0.2), n...), pair(0, 0, 1, 0.5, 0, 1)...)
		if msg := runMismatch(run, []float64{1, 1, 1, 1, rc1, rr1, rc2, rr2, 2, 0.5, 3, 0.25}); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestCollisionSolveMatchesReference: a whole 2000-iteration serial
// n=64 solve (the packing-wide cell's shape) leaves Z bit-equal whether
// the graph carries the operator, whose pairs form one run evaluated by
// EvalRun, or the reference, which every pair's node evaluates alone.
func TestCollisionSolveMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("two 2000-iteration solves")
	}
	solve := func(op graph.Op, runs int) []float64 {
		t.Helper()
		p, err := build(Config{N: 64}, op)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Graph.Runs()); got != runs {
			t.Fatalf("%T graph has %d runs, want %d", op, got, runs)
		}
		p.InitRandom(rand.New(rand.NewSource(5)))
		if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 2000}); err != nil {
			t.Fatal(err)
		}
		return p.Graph.Z
	}
	got, want := solve(CollisionOp{}, 1), solve(referenceCollisionOp{}, 0)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Z[%d] = %v, reference solve %v", i, got[i], want[i])
		}
	}
}

// BenchmarkCollisionEval times one CollisionOp.Eval (ns/op is ns per
// pair) on three mixes: pairs the reject decides, overlapping pairs that
// take the Hypot path, and every pair of an n=64 iterate after 200
// iterations (the packing-wide cell's mix). apart_share is the share of
// the mix the reject decides. Each mix's "-run" twin evaluates the whole
// mix as one run through EvalRun per op and reports ns/pair.
func BenchmarkCollisionEval(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	var far, near [][]float64
	for i := 0; i < 1024; i++ {
		cx, cy := rng.Float64(), rng.Float64()
		far = append(far, pair(cx, cy, 0.05, cx+0.5, cy+0.3, 0.05))
		near = append(near, pair(cx, cy, 0.3, cx+0.2, cy-0.1, 0.3))
	}
	p, err := Build(Config{N: 64})
	if err != nil {
		b.Fatal(err)
	}
	p.InitRandom(rand.New(rand.NewSource(5)))
	if _, err := admm.Run(p.Graph, admm.Options{MaxIter: 200}); err != nil {
		b.Fatal(err)
	}
	g := p.Graph
	var iterate [][]float64
	for a := 0; a < g.NumFunctions(); a++ {
		if _, ok := g.Op(a).(CollisionOp); ok {
			lo, hi := g.FuncEdges(a)
			iterate = append(iterate, g.N[lo*Dims:hi*Dims])
		}
	}
	rho := []float64{1, 1, 1, 1}
	for _, mix := range []struct {
		name  string
		pairs [][]float64
	}{{"apart", far}, {"overlap", near}, {"n64-iterate", iterate}} {
		b.Run(mix.name, func(b *testing.B) {
			decided := 0
			for _, n := range mix.pairs {
				if apart(n[0]-n[4], n[1]-n[5], n[2]+n[6]) {
					decided++
				}
			}
			x := make([]float64, 4*Dims)
			j := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CollisionOp{}.Eval(x, mix.pairs[j], rho, Dims)
				if j++; j == len(mix.pairs) {
					j = 0
				}
			}
			b.ReportMetric(float64(decided)/float64(len(mix.pairs)), "apart_share")
		})
		b.Run(mix.name+"-run", func(b *testing.B) {
			var n, runRho []float64
			for _, p := range mix.pairs {
				n, runRho = append(n, p...), append(runRho, rho...)
			}
			x := make([]float64, len(n))
			for b.Loop() {
				CollisionOp{}.EvalRun(x, n, runRho, Dims, len(mix.pairs))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mix.pairs)), "ns/pair")
		})
	}
}
