package admm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/prox"
)

// plainSumSq sums squares left to right, as checkPass does.
func plainSumSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// TestNormBoundsBracketNorm2 checks the certificate's premise directly:
// whenever normBounds accepts a plain sum, linalg.Norm2 lies inside the
// bracket. The vectors are the ones Norm2's error analysis is worst on
// — ascending magnitudes rescale its accumulator at every element —
// plus equal, descending and random ones, at magnitudes from the
// underflow end of the accepted range to the overflow end, with zeros
// and subnormals mixed in.
func TestNormBoundsBracketNorm2(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	accepted := 0
	check := func(v []float64) {
		t.Helper()
		lo, hi, ok := normBounds(plainSumSq(v), len(v))
		if !ok {
			return
		}
		accepted++
		if nrm := linalg.Norm2(v); !(lo <= nrm && nrm <= hi) {
			t.Fatalf("len %d: Norm2 = %v outside [%v, %v] (sum of squares %v)", len(v), nrm, lo, hi, plainSumSq(v))
		}
	}
	for _, m := range []int{1, 2, 3, 7, 64, 1000, 5000} {
		for _, e := range []int{-520, -460, -450, -300, -20, 0, 20, 300, 490, 499, 500} {
			s := math.Ldexp(1, e)
			asc, desc, eq, rnd, mixed := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
			for i := range asc {
				asc[i] = s * (1 + float64(i)) / float64(m)
				desc[m-1-i] = asc[i]
				eq[i] = s * (1 + 0x1p-52*float64(i%3))
				rnd[i] = s * rng.NormFloat64()
				switch i % 4 {
				case 0:
					mixed[i] = 0
				case 1:
					mixed[i] = 5e-324 * float64(rng.Intn(1000))
				default:
					mixed[i] = -s * rng.Float64()
				}
			}
			// Geometric growth: every element rescales the accumulator by
			// a factor that is not a power of two.
			geo := make([]float64, m)
			for i := range geo {
				geo[i] = s * math.Pow(1.0009765625+rng.Float64()*1e-3, float64(i-m))
			}
			for _, v := range [][]float64{asc, desc, eq, rnd, mixed, geo} {
				check(v)
			}
		}
	}
	for trial := 0; trial < 20000; trial++ {
		v := make([]float64, 1+rng.Intn(40))
		e := rng.Intn(1000) - 480
		for i := range v {
			v[i] = math.Ldexp(rng.NormFloat64(), e+rng.Intn(60)-30)
		}
		check(v)
	}
	if accepted < 15000 {
		t.Fatalf("only %d vectors inside the certified range: the test no longer exercises the bracket", accepted)
	}
	for _, ss := range []float64{0, 0x1p-901, math.Nextafter(0x1p1000, math.Inf(1)), math.Inf(1), math.NaN(), -1} {
		if _, _, ok := normBounds(ss, 4); ok {
			t.Errorf("normBounds accepted %v", ss)
		}
	}
}

// checkGraph is a small d=3 graph (five edges on three variables, one
// of degree 3) for the decision fuzz target.
func checkGraph(t testing.TB) *graph.Graph {
	g := graph.New(3)
	g.AddNode(prox.Identity{}, 0, 1)
	g.AddNode(prox.Identity{}, 1, 2)
	g.AddNode(prox.Identity{}, 1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetUniformParams(1.5, 1)
	return g
}

// nextUlps steps v by k ulps (toward +Inf for k > 0).
func nextUlps(v float64, k int8) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// FuzzConvergedDecision pins the certified stopping decision to
// converged's over arbitrary state and tolerances. The state's values
// come from data, either as raw float64 bits (mode&4) or as 16-bit
// integers scaled by 2^scale, which reaches both ends of the certified
// range. The residuals are the fuzzer's own, or (mode&1, mode&2) the
// exact thresholds stepped by pOff/dOff ulps — where a wrong bracket
// would show first. Every accepted bracket must hold Norm2, and the
// decision must equal converged's.
func FuzzConvergedDecision(f *testing.F) {
	seed := func(vals []int16) []byte {
		b := make([]byte, 2*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(v))
		}
		return b
	}
	small := seed([]int16{3, -7, 12, 100, -1, 0, 5, 9, -30, 44, 2, 1, -8, 17, 6, -2})
	for _, c := range []struct {
		data           []byte
		absTol, relTol float64
		primal, dual   float64
		pOff, dOff     int8
		mode           uint8
		scale          int16
	}{
		{small, 1e-4, 1e-4, 0, 0, 0, 0, 3, -10},
		{small, 1e-4, 1e-4, 0, 0, 1, -1, 3, -10},
		{small, 1e-4, 1e-4, 0, 0, -1, 1, 3, -10},
		{small, 0, 1e-3, 0, 0, 0, 0, 3, 0},
		{small, 1e-3, 0, 0, 0, 2, -2, 3, 0},
		{small, 1e-6, -1e-6, 0, 0, 1, 1, 3, 0},
		{small, 1e-4, 1e-4, 0.5, 0.01, 0, 0, 0, -4},
		{small, 1e-4, 1e-4, math.NaN(), 0, 0, 0, 0, -4},
		{small, 1e-4, 1e-4, 0, 0, 0, 0, 3, -460},
		{small, 1e-4, 1e-4, 0, 0, 0, 0, 3, -445},
		{small, 1e-4, 1e-4, 0, 0, 0, 0, 3, 490},
		{small, 1e300, 1e300, 0, 0, 0, 0, 3, 480},
		{small, math.Inf(1), -1e308, 1, 1, 0, 0, 0, 480},
		{[]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 1e-4, 1e-4, 0, 0, 0, 0, 7, 0},
		{[]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 1e-4, 1e-4, 0, 0, 0, 0, 7, 0},
	} {
		f.Add(c.data, c.absTol, c.relTol, c.primal, c.dual, c.pOff, c.dOff, c.mode, c.scale)
	}
	f.Fuzz(func(t *testing.T, data []byte, absTol, relTol, primal, dual float64, pOff, dOff int8, mode uint8, scale int16) {
		if len(data) == 0 {
			return
		}
		g := checkGraph(t)
		zPrev := make([]float64, len(g.Z))
		state := [][]float64{g.X, g.U, g.Z, zPrev}
		j := 0
		for _, v := range state {
			for i := range v {
				if mode&4 != 0 {
					var b [8]byte
					for k := range b {
						b[k] = data[(8*j+k)%len(data)]
					}
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				} else {
					w := int16(uint16(data[(2*j)%len(data)]) | uint16(data[(2*j+1)%len(data)])<<8)
					v[i] = math.Ldexp(float64(w), int(scale))
				}
				j++
			}
		}
		s := checkPass(g, zPrev)
		for _, c := range []struct {
			name string
			ss   float64
			v    []float64
		}{{"x", s.xx, g.X}, {"u", s.uu, g.U}, {"z", s.zz, g.Z}} {
			if lo, hi, ok := normBounds(c.ss, len(c.v)); ok {
				if nrm := linalg.Norm2(c.v); !(lo <= nrm && nrm <= hi) {
					t.Fatalf("Norm2(%s) = %v outside [%v, %v]", c.name, nrm, lo, hi)
				}
			}
		}
		a := absTerm(g, absTol)
		if mode&1 != 0 {
			primal = nextUlps(tolerance(a, relTol, math.Max(linalg.Norm2(g.X), linalg.Norm2(g.Z))), pOff)
		}
		if mode&2 != 0 {
			dual = nextUlps(tolerance(a, relTol, linalg.Norm2(g.U)), dOff)
		}
		s.primal, s.dual = primal, dual
		if got, want := s.converged(g, absTol, relTol), converged(g, primal, dual, absTol, relTol); got != want {
			t.Fatalf("certified decision %v, converged %v (primal %v, dual %v, absTol %v, relTol %v)",
				got, want, primal, dual, absTol, relTol)
		}
	})
}

// TestCheckPassMatchesReference: on states taken from real solves, plus
// planted subnormal, zero, NaN and ±Inf duals, the one pass returns
// Residuals' exact bits, flushes U exactly as flushSubnormals does, and
// decides as converged does.
func TestCheckPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	targets := make([]float64, 40)
	for i := range targets {
		targets[i] = rng.NormFloat64()
	}
	for _, iters := range []int{1, 9, 40, 200} {
		a, b := buildAveraging(t, targets), buildAveraging(t, targets)
		for _, g := range []*graph.Graph{a, b} {
			var ph [NumPhases]int64
			NewSerialFused().Iterate(g, iters, &ph)
			g.U[0], g.U[1], g.U[2], g.U[3] = 5e-324, -2.5e-310, math.Copysign(0, -1), 0x1p-1022
			if iters == 200 {
				g.U[4] = math.NaN()
			}
			if iters == 40 {
				g.U[4] = math.Inf(-1)
			}
		}
		zPrev := make([]float64, len(a.Z))
		for i := range zPrev {
			zPrev[i] = a.Z[i] * (1 + 1e-3*rng.NormFloat64())
		}
		for _, tol := range [][2]float64{{1e-4, 1e-4}, {1e-2, 1e-2}, {1, 0}, {0, 1}, {0, 0}} {
			p1, d1, c1 := ExactCheck(a, zPrev, tol[0], tol[1])
			p2, d2, c2 := CertifiedCheck(b, zPrev, tol[0], tol[1])
			if math.Float64bits(p1) != math.Float64bits(p2) || math.Float64bits(d1) != math.Float64bits(d2) || c1 != c2 {
				t.Fatalf("iters %d tol %v: exact (%v, %v, %v), certified (%v, %v, %v)", iters, tol, p1, d1, c1, p2, d2, c2)
			}
			for i := range a.U {
				if math.Float64bits(a.U[i]) != math.Float64bits(b.U[i]) {
					t.Fatalf("iters %d: U[%d] = %v after the pass, %v after flushSubnormals", iters, i, b.U[i], a.U[i])
				}
			}
		}
	}
}
