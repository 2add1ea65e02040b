package packing

import (
	"math"

	"repro/internal/graph"
)

// Block layout conventions for the packing operators. The graph carries
// d=2 doubles per edge: a center block holds (cx, cy); a radius block
// holds (r, pad). Padded components follow the identity-prox convention.

// CollisionOp enforces ||c_i - c_j|| >= r_i + r_j for one pair of
// circles (paper Appendix A, first operator). Edge order: c_i, r_i,
// c_j, r_j. The closed form is the weighted KKT solution along the line
// joining the incoming centers; note the paper's printed formula moves
// radii in the (+) direction, which would *grow* them on overlap — this
// implementation uses the KKT-consistent shrink direction (the
// "radii shrink" step in Eval below; TestCollisionOpResolvesOverlapExactly
// pins it).
//
// Most pairs of a packing iterate are far apart, so Eval first asks
// apart whether the squared center distance alone proves
// math.Hypot(dx, dy) >= r1+r2, and only computes the square root when
// it cannot tell. The reject is exact: when apart is true the old test
// `r1 + r2 - Hypot(dx, dy) <= 0` is true too, and the identity branch
// writes the same bits; every pair apart cannot decide takes the Hypot
// path unchanged. With s = r1+r2 and s2 = dx*dx+dy*dy, case by case:
//
//   - s NaN, s <= 1e-150 (negative radii, -Inf): the guard is false.
//   - s*s*(1+1e-12) overflows (s >= ~1.34e154, +Inf): the right side
//     is +Inf and `>` is false.
//   - dx or dy NaN: s2 is NaN and `>` is false.
//   - dx or dy ±Inf, neither NaN: s2 = +Inf beats a finite right side;
//     math.Hypot of an infinite argument is +Inf, so s - dist <= 0.
//   - finite dx, dy with s2 overflowed to +Inf: the exact dx²+dy² is at
//     least MaxFloat64, so Hypot > 1.34e154 > s, whose square was finite.
//   - everything finite: s > 1e-150 keeps s*s normal (>= 1e-300), so
//     s2 > 1e-300 and its larger square is normal; a subnormal smaller
//     square is off by at most 2^-1075, nothing against s2. s2 and the
//     right side each carry a few ulps of relative error (less if the
//     compiler fuses a multiply-add), and so does Go's Hypot; the 1e-12
//     margin is about a thousand times all of them together, so
//     s2 > s*s*(1+1e-12) gives Hypot(dx, dy) > s.
//
// Value tests feasibility with the same helper, so the two agree.
//
// EvalRun, the x-update's one call for the run of pair nodes, takes the
// same decision with the same apart call on the same inputs, so the
// argument above holds for it unchanged: a pair apart decides gets the
// bits of the identity branch, and every other pair is Eval.
type CollisionOp struct{}

// apart reports whether math.Hypot(dx, dy) >= s is certain without
// computing it; false means "cannot tell", not "overlapping". The
// argument is on CollisionOp.
func apart(dx, dy, s float64) bool {
	return s > 1e-150 && dx*dx+dy*dy > s*s*(1+1e-12)
}

// Eval implements graph.Op.
func (CollisionOp) Eval(x, n, rho []float64, d int) {
	// Gather inputs.
	c1x, c1y := n[0*d], n[0*d+1]
	r1 := n[1*d]
	c2x, c2y := n[2*d], n[2*d+1]
	r2 := n[3*d]
	// Pads: radius blocks carry one live component.
	x[1*d+1] = n[1*d+1]
	x[3*d+1] = n[3*d+1]

	dx, dy := c1x-c2x, c1y-c2y
	s := r1 + r2
	var dist, overlap float64 // a certain reject leaves overlap 0: identity
	if !apart(dx, dy, s) {
		dist = math.Hypot(dx, dy)
		overlap = s - dist
	}
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

// EvalRun implements graph.RunEvaluator over count consecutive pairs.
// A pair apart decides is Eval's identity branch, x = n: its 4*Dims
// doubles, pads included, are copied element by element (a whole-array
// copy calls memmove, as x and n might overlap). Every other pair, and
// every node of a run whose d or degree is not the packing graph's,
// calls Eval unchanged.
func (op CollisionOp) EvalRun(x, n, rho []float64, d, count int) {
	if deg := len(rho) / count; d != Dims || deg != 4 {
		w := deg * d
		for c := 0; c < count; c++ {
			op.Eval(x[c*w:(c+1)*w], n[c*w:(c+1)*w], rho[c*deg:(c+1)*deg], d)
		}
		return
	}
	const w = 4 * Dims
	for c := 0; c < count; c++ {
		p, q := (*[w]float64)(n[c*w:]), (*[w]float64)(x[c*w:])
		if apart(p[0]-p[4], p[1]-p[5], p[2]+p[6]) {
			q[0], q[1], q[2], q[3] = p[0], p[1], p[2], p[3]
			q[4], q[5], q[6], q[7] = p[4], p[5], p[6], p[7]
			continue
		}
		op.Eval(q[:], p[:], rho[c*4:c*4+4], Dims)
	}
}

// Work implements graph.Op.
func (CollisionOp) Work(deg, d int) graph.Work {
	return graph.Work{Flops: 150, MemWords: float64(2*deg*d + deg), Branchy: 0.5, Serial: 0.9}
}

// Weights implements graph.WeightSetter (the three-weight extension):
// when the no-collision constraint is inactive the operator returned
// x = n and has no opinion, so its messages carry zero weight — the TWA
// behaviour that reference [9] credits for record packing densities.
func (CollisionOp) Weights(x, n, rho []float64, d int, out []graph.WeightClass) {
	identity := true
	for i := range x {
		if x[i] != n[i] {
			identity = false
			break
		}
	}
	if identity {
		for k := range out {
			out[k] = graph.WeightZero
		}
	}
}

// Value reports the indicator value at a point (0 feasible, +inf not),
// with a tolerance; used by validity checks via admm.Objective.
func (CollisionOp) Value(s []float64, d int) float64 {
	dx, dy := s[0*d]-s[2*d], s[0*d+1]-s[2*d+1]
	need := s[1*d] + s[3*d] - 1e-9
	if apart(dx, dy, need) || math.Hypot(dx, dy) >= need {
		return 0
	}
	return math.Inf(1)
}

// WallOp enforces Q . (c - V) >= r for one circle and one wall (paper
// Appendix A, second operator, generalized to distinct edge rhos). Edge
// order: c, r.
type WallOp struct {
	Wall Halfplane
}

// Eval implements graph.Op.
func (w WallOp) Eval(x, n, rho []float64, d int) {
	cx, cy := n[0*d], n[0*d+1]
	r := n[1*d]
	x[1*d+1] = n[1*d+1] // pad

	v := w.Wall.Q.X*(cx-w.Wall.V.X) + w.Wall.Q.Y*(cy-w.Wall.V.Y) - r
	if v >= 0 {
		x[0*d], x[0*d+1] = cx, cy
		x[1*d] = r
		return
	}
	rc, rr := rho[0], rho[1]
	alpha := -v / (1/rc + 1/rr)
	x[0*d] = cx + alpha/rc*w.Wall.Q.X
	x[0*d+1] = cy + alpha/rc*w.Wall.Q.Y
	x[1*d] = r - alpha/rr
}

// Work implements graph.Op.
func (w WallOp) Work(deg, d int) graph.Work {
	return graph.Work{Flops: 40, MemWords: float64(2*deg*d + deg + 4), Branchy: 0.5, Serial: 0.8}
}

// Weights implements graph.WeightSetter: an inactive wall abstains.
func (w WallOp) Weights(x, n, rho []float64, d int, out []graph.WeightClass) {
	identity := true
	for i := range x {
		if x[i] != n[i] {
			identity = false
			break
		}
	}
	if identity {
		for k := range out {
			out[k] = graph.WeightZero
		}
	}
}

// Value is the indicator of the wall constraint.
func (w WallOp) Value(s []float64, d int) float64 {
	if w.Wall.Q.X*(s[0*d]-w.Wall.V.X)+w.Wall.Q.Y*(s[0*d+1]-w.Wall.V.Y) >= s[1*d]-1e-9 {
		return 0
	}
	return math.Inf(1)
}

// RadiusOp is the prox of the concave reward -delta/2 * r^2 restricted
// to r >= 0, which pushes every radius to grow (paper Appendix A, third
// operator): r = max(0, rho*n / (rho - delta)), requiring rho > delta.
//
// The nonnegativity restriction is not spelled out in the paper's
// appendix but is required for stability: without it, a radius driven
// negative by collision resolution is amplified by rho/(rho-delta) > 1
// every iteration and diverges to -infinity (radii are nonnegative in
// the Figure 6 formulation to begin with).
type RadiusOp struct {
	Delta float64
}

// Eval implements graph.Op.
func (p RadiusOp) Eval(x, n, rho []float64, d int) {
	x[1] = n[1] // pad
	r := rho[0]
	if r <= p.Delta {
		panic("packing: RadiusOp needs rho > delta (unbounded subproblem)")
	}
	v := r * n[0] / (r - p.Delta)
	if v < 0 {
		v = 0
	}
	x[0] = v
}

// Work implements graph.Op.
func (p RadiusOp) Work(deg, d int) graph.Work {
	return graph.Work{Flops: 6, MemWords: float64(2 * d), Serial: 0.5}
}

// Value returns -delta/2 r^2.
func (p RadiusOp) Value(s []float64, d int) float64 {
	return -p.Delta / 2 * s[0] * s[0]
}
