package admm

import (
	"math"

	"repro/internal/graph"
)

// absTerm is the stopping threshold's constant term absTol*sqrt(n),
// n = |E|*d.
func absTerm(g *graph.Graph, absTol float64) float64 {
	return float64(absTol * math.Sqrt(float64(g.NumEdges()*g.D())))
}

// tolerance is the stopping threshold a + relTol*v, a = absTerm. The
// conversions round each product before the sum (the Go spec otherwise
// lets a compiler fuse a multiply-add), so the threshold is one
// function of v on every platform, and a monotone one: each rounding
// step is.
func tolerance(a, relTol, v float64) float64 {
	return a + float64(relTol*v)
}

// checkSums is what checkPass leaves for the stopping test: the
// residuals, bit for bit Residuals', plain (unscaled, any-order) sums
// of squares of X, U and Z, and whether the pass zeroed an entry of U.
type checkSums struct {
	primal, dual float64
	xx, uu, zz   float64
	flushed      bool
}

// checkPass is a residual block's one pass over the state: it
// accumulates Residuals' two sums in Residuals' order, zeroes subnormal
// U as flushSubnormals does, and sums the squares of X and of the
// flushed U on the way; a short second pass sums the squares of Z.
func checkPass(g *graph.Graph, zPrev []float64) checkSums {
	d := g.D()
	X, U, Z, Rho := g.X, g.U, g.Z, g.Rho
	U, zPrev = U[:len(X)], zPrev[:len(Z)]
	var p, du, xx, uu float64
	var fl bool
	nE := g.NumEdges()
	if d <= 5 {
		// Small-d path (packing d=2, svm d=3, mpc d=5): one edge per
		// loop trip, its components unrolled, so no per-component loop
		// counter competes for registers with the sums.
		for e := 0; e < nE; e++ {
			r := Rho[e]
			b, zb := e*d, g.EdgeVar(e)*d
			p, du, xx, uu, U[b], fl = checkStep(p, du, xx, uu, fl, X[b], Z[zb], zPrev[zb], r, U[b])
			if d > 1 {
				p, du, xx, uu, U[b+1], fl = checkStep(p, du, xx, uu, fl, X[b+1], Z[zb+1], zPrev[zb+1], r, U[b+1])
			}
			if d > 2 {
				p, du, xx, uu, U[b+2], fl = checkStep(p, du, xx, uu, fl, X[b+2], Z[zb+2], zPrev[zb+2], r, U[b+2])
			}
			if d > 3 {
				p, du, xx, uu, U[b+3], fl = checkStep(p, du, xx, uu, fl, X[b+3], Z[zb+3], zPrev[zb+3], r, U[b+3])
			}
			if d > 4 {
				p, du, xx, uu, U[b+4], fl = checkStep(p, du, xx, uu, fl, X[b+4], Z[zb+4], zPrev[zb+4], r, U[b+4])
			}
		}
	} else {
		for e := 0; e < nE; e++ {
			r := Rho[e]
			b, zb := e*d, g.EdgeVar(e)*d
			for i := 0; i < d; i++ {
				p, du, xx, uu, U[b+i], fl = checkStep(p, du, xx, uu, fl, X[b+i], Z[zb+i], zPrev[zb+i], r, U[b+i])
			}
		}
	}
	var zz float64
	for _, v := range Z {
		zz += v * v
	}
	return checkSums{primal: math.Sqrt(p), dual: math.Sqrt(du), xx: xx, uu: uu, zz: zz, flushed: fl}
}

// checkStep adds one component's terms to checkPass's four sums and
// returns u flushed, and fl set if it was: Residuals' p += (x-z)^2 and
// du += (rho*(z-zp))^2, the plain x^2 and u^2, and flushSubnormals'
// predicate.
func checkStep(p, du, xx, uu float64, fl bool, x, z, zp, r, u float64) (float64, float64, float64, float64, float64, bool) {
	dv := x - z
	sv := r * (z - zp)
	if math.Float64bits(u)<<1-1 < 1<<53-1 {
		u, fl = 0, true
	}
	return p + dv*dv, du + sv*sv, xx + x*x, uu + u*u, u, fl
}

// converged returns converged(g, s.primal, s.dual, absTol, relTol) for
// the state the pass read, deciding from the sums of squares where
// their bounds settle it and calling converged where they do not.
func (s checkSums) converged(g *graph.Graph, absTol, relTol float64) bool {
	if absTol <= 0 && relTol <= 0 {
		return false
	}
	xlo, xhi, okx := normBounds(s.xx, len(g.X))
	ulo, uhi, oku := normBounds(s.uu, len(g.U))
	zlo, zhi, okz := normBounds(s.zz, len(g.Z))
	// With a and relTol finite the threshold is monotone in v and never
	// NaN; an infinite a could meet an overflowed relTol*v of the other
	// sign.
	a := absTerm(g, absTol)
	if okx && oku && okz && math.Abs(a) <= math.MaxFloat64 && math.Abs(relTol) <= math.MaxFloat64 {
		pLo, pHi := tolerance(a, relTol, math.Max(xlo, zlo)), tolerance(a, relTol, math.Max(xhi, zhi))
		dLo, dHi := tolerance(a, relTol, ulo), tolerance(a, relTol, uhi)
		// relTol < 0 makes the threshold decrease in v: order the ends.
		pLo, pHi = math.Min(pLo, pHi), math.Max(pLo, pHi)
		dLo, dHi = math.Min(dLo, dHi), math.Max(dLo, dHi)
		if !(s.primal <= pHi) || !(s.dual <= dHi) {
			return false
		}
		if s.primal <= pLo && s.dual <= dLo {
			return true
		}
	}
	return converged(g, s.primal, s.dual, absTol, relTol)
}

// normBounds brackets linalg.Norm2 of an m-element vector whose squares
// summed in some order to ss: lo <= Norm2(v) <= hi. ok is false outside
// 2^-900 <= ss <= 2^1000 — NaN, ±Inf and underflow included — where
// rounding errors are no longer relative ones. The package doc has the
// error analysis.
func normBounds(ss float64, m int) (lo, hi float64, ok bool) {
	if !(ss >= 0x1p-900 && ss <= 0x1p1000) {
		return 0, 0, false
	}
	q := math.Sqrt(ss)
	k := float64(m+8) * 0x1p-50
	return q * (1 - k), q * (1 + k), true
}
