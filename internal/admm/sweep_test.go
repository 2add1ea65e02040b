package admm

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sweepCase is one raw sweep problem: a variable CSR over nv variables
// (the edges of b are edges[start[b]:start[b+1]]) and the arrays the
// sweep reads and writes, d doubles per edge.
type sweepCase struct {
	d, nv        int
	start, edges []int
	x, u, n, z   []float64
	rho, alpha   []float64
	lo, hi       int
	poisoned     bool
}

// sweepTopology spreads ne edges over nv variables through owner and
// returns the CSR, each variable's edges ascending as Finalize builds
// them. Variables owner never names are isolated.
func sweepTopology(nv, ne int, owner func(e int) int) (start, edges []int) {
	deg := make([]int, nv)
	of := make([]int, ne)
	for e := range of {
		of[e] = owner(e)
		deg[of[e]]++
	}
	start = make([]int, nv+1)
	for b, dg := range deg {
		start[b+1] = start[b] + dg
	}
	next := append([]int(nil), start[:nv]...)
	edges = make([]int, ne)
	for e, b := range of {
		edges[next[b]] = e
		next[b]++
	}
	return start, edges
}

// oddSweepValue draws what an entry carries when poisoned: an infinity,
// a subnormal, a signed zero, a value whose products overflow, or a quiet
// or signalling NaN with a payload of its own, so that an add, a
// multiply or a subtract meeting two NaNs shows which operand came first.
func oddSweepValue(rng *rand.Rand) float64 {
	switch rng.Intn(9) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(2))<<63)
	case 3:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 4:
		return 1e300 * rng.NormFloat64()
	case 5, 6:
		return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()&(1<<51-1) | uint64(rng.Intn(2))<<63)
	}
	return math.Float64frombits(0x7ff0000000000000 | (rng.Uint64()&(1<<51-1) | 1))
}

// randomSweepCase builds a d-lane case over up to 40 variables: two hubs
// take a third of the edges, the last fifth of the variables is isolated
// (but for a hub among them), and the rest draw edges at random, so
// degrees 0, 1, a few and many all occur. Z and N start stale.
func randomSweepCase(rng *rand.Rand, d int, poisoned bool) sweepCase {
	nv := 1 + rng.Intn(40)
	ne := rng.Intn(3 * nv)
	live := max(1, nv-nv/5)
	hubs := [2]int{rng.Intn(nv), rng.Intn(nv)}
	start, edges := sweepTopology(nv, ne, func(int) int {
		if rng.Intn(3) == 0 {
			return hubs[rng.Intn(2)]
		}
		return rng.Intn(live)
	})
	draw := rng.NormFloat64
	if poisoned {
		draw = func() float64 {
			if rng.Intn(4) == 0 {
				return oddSweepValue(rng)
			}
			return rng.NormFloat64()
		}
	}
	fill := func(n int, f func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	lo := rng.Intn(nv + 1)
	hi := lo + rng.Intn(nv-lo+1)
	if rng.Intn(2) == 0 {
		lo, hi = 0, nv
	}
	return sweepCase{
		d: d, nv: nv, start: start, edges: edges,
		x: fill(ne*d, draw), u: fill(ne*d, draw), n: fill(ne*d, draw), z: fill(nv*d, draw),
		rho:   fill(ne, func() float64 { return 0.25 + rng.Float64() }),
		alpha: fill(ne, func() float64 { return 0.5 + rng.Float64() }),
		lo:    lo, hi: hi, poisoned: poisoned,
	}
}

// sweepGuard is the first guard word; word i of a guard run is
// sweepGuard+i, a signalling NaN no sweep produces.
const sweepGuard = 0x7ff4_dead_beef_0001

// guarded returns a copy of v between four guard words on each side, and
// the slice of it that holds v.
func guarded(v []float64) (buf, in []float64) {
	buf = make([]float64, len(v)+8)
	for i := range buf {
		buf[i] = math.Float64frombits(sweepGuard + uint64(i))
	}
	copy(buf[4:], v)
	return buf, buf[4 : 4+len(v)]
}

// runSweep runs sweep over c.lo..c.hi on copies of c's arrays, Z, U and
// N between guard words, and returns Z, U and N after it. It fails if the
// sweep wrote a guard word or any of X, rho and alpha.
func runSweep(t testing.TB, c *sweepCase, sweep func(start, edges []int, x, u, n, z, rho, alpha []float64, d, lo, hi int)) (z, u, n []float64) {
	t.Helper()
	x := append([]float64(nil), c.x...)
	rho := append([]float64(nil), c.rho...)
	alpha := append([]float64(nil), c.alpha...)
	zb, z := guarded(c.z)
	ub, u := guarded(c.u)
	nb, n := guarded(c.n)
	sweep(c.start, c.edges, x, u, n, z, rho, alpha, c.d, c.lo, c.hi)
	for name, buf := range map[string][]float64{"Z": zb, "U": ub, "N": nb} {
		for i, v := range buf {
			if (i < 4 || i >= len(buf)-4) && math.Float64bits(v) != sweepGuard+uint64(i) {
				t.Fatalf("d=%d: the sweep wrote guard word %d of %s", c.d, i, name)
			}
		}
	}
	for name, pair := range map[string][2][]float64{"X": {x, c.x}, "rho": {rho, c.rho}, "alpha": {alpha, c.alpha}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("d=%d: the sweep wrote %s[%d]", c.d, name, i)
			}
		}
	}
	return append([]float64(nil), z...), append([]float64(nil), u...), append([]float64(nil), n...)
}

// sameSweepBits reports the first element where the AVX2 sweep and the
// Go loops differ in any bit; with anyNaN set two NaNs match whatever
// their payloads.
func sameSweepBits(t testing.TB, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x (%g) on the AVX2 sweep, %#x (%g) on the Go loops",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// compareSweep runs both bodies on c and compares Z, U and N bit for
// bit.
func compareSweep(t testing.TB, what string, c *sweepCase, anyNaN bool) {
	t.Helper()
	gz, gu, gn := runSweep(t, c, zunAVX2)
	wz, wu, wn := runSweep(t, c, zunGo)
	sameSweepBits(t, what+" Z", gz, wz, anyNaN)
	sameSweepBits(t, what+" U", gu, wu, anyNaN)
	sameSweepBits(t, what+" N", gn, wn, anyNaN)
}

// TestSweepKernelMatchesGo pins the AVX2 sweep to the Go loops bit for
// bit for every d it runs (1..5): random CSRs with hubs, isolated
// variables (whose z is the Go loop's 0*(1/0) NaN) and degree-1
// variables, whole and partial variable ranges, the empty one included;
// X, U, rho and stale Z and N carry infinities, subnormals, signed zeros
// and NaNs with payloads of their own in the poisoned half. Z, U and N
// sit between guard words.
func TestSweepKernelMatchesGo(t *testing.T) {
	if !sweepAVX2 {
		t.Skip("no AVX2 sweep on this CPU or architecture")
	}
	rng := rand.New(rand.NewSource(53))
	for d := 1; d <= 5; d++ {
		for i := 0; i < 300; i++ {
			c := randomSweepCase(rng, d, i%2 == 1)
			if c.poisoned {
				for e := range c.rho {
					if rng.Intn(4) == 0 {
						c.rho[e] = oddSweepValue(rng)
					}
					if rng.Intn(4) == 0 {
						c.alpha[e] = oddSweepValue(rng)
					}
				}
			}
			compareSweep(t, fmt.Sprintf("d=%d case %d (%d vars, %d edges, [%d,%d))", d, i, c.nv, len(c.edges), c.lo, c.hi), &c, raceEnabled)
		}
	}
}

// FuzzSweep is TestSweepKernelMatchesGo on fuzzed input: d, the variable
// of every edge (a byte per edge, so degrees and isolated variables are
// the fuzzer's), the range, and X, U, Z, N, rho and alpha as raw bits.
func FuzzSweep(f *testing.F) {
	if !sweepAVX2 {
		f.Skip("no AVX2 sweep on this CPU or architecture")
	}
	f.Add(uint8(5), uint8(7), []byte("\x00\x00\x01\x03\x03\x03\x05"), uint8(0), uint8(7), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(2), uint8(3), []byte("\x02\x02\x02\x02"), uint8(1), uint8(3), []byte("\x00\x00\x00\x00\x00\x00\x00\x40\x02\x00\x00\x00\x00\x00\xf8\xff"))
	f.Add(uint8(3), uint8(4), []byte{}, uint8(0), uint8(4), []byte("\x00\x00\x00\x00\x00\x00\x10\x00"))
	f.Add(uint8(1), uint8(1), []byte("\x00"), uint8(0), uint8(1), []byte("\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(uint8(4), uint8(9), []byte("\x08\x00\x08\x04\x08"), uint8(2), uint8(9), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x03\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, dims, vars uint8, owners []byte, lo, hi uint8, vals []byte) {
		d, nv := 1+int(dims)%5, 1+int(vars)%32
		if len(owners) > 256 {
			owners = owners[:256]
		}
		start, edges := sweepTopology(nv, len(owners), func(e int) int { return int(owners[e]) % nv })
		w := 0
		word := func() float64 {
			w++
			if len(vals) < 8 {
				return float64(w%7) - 2.5
			}
			o := 8 * w % (len(vals) &^ 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(vals[o:]))
		}
		fill := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = word()
			}
			return out
		}
		ne := len(owners)
		c := sweepCase{
			d: d, nv: nv, start: start, edges: edges,
			x: fill(ne * d), u: fill(ne * d), n: fill(ne * d), z: fill(nv * d),
			rho: fill(ne), alpha: fill(ne),
			lo: int(lo) % (nv + 1),
		}
		c.hi = c.lo + int(hi)%(nv-c.lo+1)
		// A -fuzz run builds the package with coverage instrumentation,
		// which may compile the Go loops with other operand orders, as
		// the race detector's build does; there two NaNs match whatever
		// their payloads. A plain go test run of the seed corpus checks
		// every bit.
		fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
		compareSweep(t, fmt.Sprintf("d=%d, %d vars, %d edges, [%d,%d)", d, nv, ne, c.lo, c.hi), &c, raceEnabled || fuzzing)
	})
}

// TestUpdateZUNRangeMatchesTwoPasses pins the one sweep, on each body,
// to the two passes it replaces — UpdateZFusedRange over the variables,
// then UpdateUNRange over the edges — for every d around the small-d
// boundary, over the whole graph and over a variable range (where only
// that range's variables and their edges may change).
func TestUpdateZUNRangeMatchesTwoPasses(t *testing.T) {
	eachSweep(t, func(t *testing.T) {
		for d := 1; d <= 7; d++ {
			for _, span := range [][2]int{{0, 17}, {3, 11}, {5, 5}} {
				lo, hi := span[0], span[1]
				ref := fusedKernelGraph(t, d)
				one := fusedKernelGraph(t, d)
				UpdateZFusedRange(ref, lo, hi)
				for b := lo; b < hi; b++ {
					for _, e := range ref.VarEdges(b) {
						UpdateUNRange(ref, e, e+1)
					}
				}
				UpdateZUNRange(one, lo, hi)
				for name, pair := range map[string][2][]float64{"Z": {one.Z, ref.Z}, "U": {one.U, ref.U}, "N": {one.N, ref.N}} {
					for i := range pair[1] {
						if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
							t.Fatalf("d=%d [%d,%d): %s[%d] = %g, the two passes give %g", d, lo, hi, name, i, pair[0][i], pair[1][i])
						}
					}
				}
			}
		}
	})
}

// eachSweep runs f on the AVX2 sweep, where the CPU has it, and on the
// Go loops.
func eachSweep(t *testing.T, f func(t *testing.T)) {
	if sweepAVX2 {
		t.Run("avx2", f)
	}
	t.Run("go", func(t *testing.T) {
		ForceGoSweep(t)
		f(t)
	})
}
