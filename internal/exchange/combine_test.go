package exchange

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// combineCase is one raw combine problem: a variable CSR over nv
// variables (the edges of b are edges[start[b]:start[b+1]]), the
// boundary variables vars a worker combines and its combine program src
// (one entry per edge of vars, in that order: a block index into in, or
// -1 for an own edge), and the arrays the combine reads and writes, d
// doubles per edge, block and variable.
type combineCase struct {
	d, nv        int
	start, edges []int
	vars         []int
	src          []int32
	settle       []int32 // the edges of the variables not combined
	settleVar    []int32 // and each one's variable
	in           []float64
	x, u, n, z   []float64
	rho, alpha   []float64
	poisoned     bool
}

// combineTopology spreads ne edges over nv variables through owner and
// returns the CSR, each variable's edges ascending as Finalize builds
// them. Variables owner never names are isolated.
func combineTopology(nv, ne int, owner func(e int) int) (start, edges []int) {
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

// combineProgram picks the combined variables (each variable with
// probability keep, ascending) and, per edge of theirs, whether it is
// remote (probability remote) and which inbox block it reads; it returns
// them with the number of blocks the program addresses.
func combineProgram(start, edges []int, keep, remote func() bool, block func(blocks int) int) (vars []int, src []int32, blocks int) {
	blocks = 1 + len(edges)/2
	for b := 0; b+1 < len(start); b++ {
		if !keep() {
			continue
		}
		vars = append(vars, b)
		for range edges[start[b]:start[b+1]] {
			s := int32(-1)
			if remote() {
				s = int32(block(blocks))
			}
			src = append(src, s)
		}
	}
	return vars, src, blocks
}

// settleProgram lists, for Settle, every edge of the variables c does
// not combine, in CSR order, with its variable: edges another worker
// combines, whose z it already holds.
func (c *combineCase) settleProgram() {
	combined := make([]bool, c.nv)
	for _, b := range c.vars {
		combined[b] = true
	}
	for b := range c.nv {
		for _, e := range c.edges[c.start[b]:c.start[b+1]] {
			if !combined[b] {
				c.settle = append(c.settle, int32(e))
				c.settleVar = append(c.settleVar, int32(b))
			}
		}
	}
}

// oddCombineValue draws what an entry carries when poisoned: an
// infinity, a subnormal, a signed zero, a value whose products overflow,
// or a quiet or signalling NaN with a payload of its own, so that an
// add, a multiply or a subtract meeting two NaNs shows which operand
// came first.
func oddCombineValue(rng *rand.Rand) float64 {
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

// randomCombineCase builds a d-lane case over up to 40 variables: two
// hubs take a third of the edges, the last fifth of the variables is
// isolated (but for a hub among them), and the rest draw edges at
// random, so degrees 0, 1, a few and many all occur; about two thirds of
// the variables are combined, and about half of their edges are remote.
// Z and N start stale.
func randomCombineCase(rng *rand.Rand, d int, poisoned bool) combineCase {
	nv := 1 + rng.Intn(40)
	ne := rng.Intn(3 * nv)
	live := max(1, nv-nv/5)
	hubs := [2]int{rng.Intn(nv), rng.Intn(nv)}
	start, edges := combineTopology(nv, ne, func(int) int {
		if rng.Intn(3) == 0 {
			return hubs[rng.Intn(2)]
		}
		return rng.Intn(live)
	})
	vars, src, blocks := combineProgram(start, edges,
		func() bool { return rng.Intn(3) != 0 },
		func() bool { return rng.Intn(2) == 0 },
		rng.Intn)
	draw := rng.NormFloat64
	if poisoned {
		draw = func() float64 {
			if rng.Intn(4) == 0 {
				return oddCombineValue(rng)
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
	c := combineCase{
		d: d, nv: nv, start: start, edges: edges, vars: vars, src: src,
		in: fill(blocks*d, draw),
		x:  fill(ne*d, draw), u: fill(ne*d, draw), n: fill(ne*d, draw), z: fill(nv*d, draw),
		rho:      fill(ne, func() float64 { return 0.25 + rng.Float64() }),
		alpha:    fill(ne, func() float64 { return 0.5 + rng.Float64() }),
		poisoned: poisoned,
	}
	if poisoned {
		for e := range c.rho {
			if rng.Intn(4) == 0 {
				c.rho[e] = oddCombineValue(rng)
			}
			if rng.Intn(4) == 0 {
				c.alpha[e] = oddCombineValue(rng)
			}
		}
	}
	c.settleProgram()
	return c
}

// combineGuard is the first guard word; word i of a guard run is
// combineGuard+i, a signalling NaN no combine produces.
const combineGuard = 0x7ff4_dead_beef_0001

// guarded returns a copy of v between four guard words on each side, and
// the slice of it that holds v.
func guarded(v []float64) (buf, in []float64) {
	buf = make([]float64, len(v)+8)
	for i := range buf {
		buf[i] = math.Float64frombits(combineGuard + uint64(i))
	}
	copy(buf[4:], v)
	return buf, buf[4 : 4+len(v)]
}

// checkGuards fails if who wrote a guard word of any of bufs.
func checkGuards(t testing.TB, who string, d int, bufs map[string][]float64) {
	t.Helper()
	for name, buf := range bufs {
		for i, v := range buf {
			if (i < 4 || i >= len(buf)-4) && math.Float64bits(v) != combineGuard+uint64(i) {
				t.Fatalf("d=%d: %s wrote guard word %d of %s", d, who, i, name)
			}
		}
	}
}

// runCombine runs combine on copies of c's arrays, Z, U and N between
// guard words, and returns Z, U and N after it. It fails if the combine
// wrote a guard word, any of X, the inbox, rho and alpha, the z of a
// variable it does not combine, or the u or n of an edge other than an
// own edge of a variable it combines.
func runCombine(t testing.TB, c *combineCase, combine func(vars, start, edges []int, src []int32, in, x, u, n, z, rho, alpha []float64, d int)) (z, u, n []float64) {
	t.Helper()
	x := append([]float64(nil), c.x...)
	in := append([]float64(nil), c.in...)
	rho := append([]float64(nil), c.rho...)
	alpha := append([]float64(nil), c.alpha...)
	zb, z := guarded(c.z)
	ub, u := guarded(c.u)
	nb, n := guarded(c.n)
	combine(c.vars, c.start, c.edges, c.src, in, x, u, n, z, rho, alpha, c.d)
	checkGuards(t, "the combine", c.d, map[string][]float64{"Z": zb, "U": ub, "N": nb})
	for name, pair := range map[string][2][]float64{"X": {x, c.x}, "inbox": {in, c.in}, "rho": {rho, c.rho}, "alpha": {alpha, c.alpha}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("d=%d: the combine wrote %s[%d]", c.d, name, i)
			}
		}
	}
	combined := make([]bool, c.nv)
	own := make([]bool, len(c.rho))
	at := 0
	for _, b := range c.vars {
		combined[b] = true
		for _, e := range c.edges[c.start[b]:c.start[b+1]] {
			own[e] = c.src[at] < 0
			at++
		}
	}
	untouched := func(name string, got, was []float64, mine []bool) {
		for i := range got {
			if !mine[i/c.d] && math.Float64bits(got[i]) != math.Float64bits(was[i]) {
				t.Fatalf("d=%d: the combine wrote %s[%d], outside its write set", c.d, name, i)
			}
		}
	}
	untouched("Z", z, c.z, combined)
	untouched("U", u, c.u, own)
	untouched("N", n, c.n, own)
	return append([]float64(nil), z...), append([]float64(nil), u...), append([]float64(nil), n...)
}

// sameCombineBits reports the first element where an AVX2 kernel and
// its Go loops differ in any bit; with anyNaN set two NaNs match
// whatever their payloads.
func sameCombineBits(t testing.TB, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x (%g) on the AVX2 kernel, %#x (%g) on the Go loops",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// compareCombine runs both bodies on c and compares Z, U and N bit for
// bit.
func compareCombine(t testing.TB, what string, c *combineCase, anyNaN bool) {
	t.Helper()
	gz, gu, gn := runCombine(t, c, combineAVX2)
	wz, wu, wn := runCombine(t, c, combineGo)
	sameCombineBits(t, what+" Z", gz, wz, anyNaN)
	sameCombineBits(t, what+" U", gu, wu, anyNaN)
	sameCombineBits(t, what+" N", gn, wn, anyNaN)
}

// runSettle runs settle over c's settle program on copies of c's
// arrays, Z, U and N between guard words, and returns U and N after it.
// It fails if the settle wrote a guard word, any of X, Z and alpha, or
// the u or n of an edge it does not list.
func runSettle(t testing.TB, c *combineCase, settle func(edges, vars []int32, x, u, n, z, alpha []float64, d int)) (u, n []float64) {
	t.Helper()
	x := append([]float64(nil), c.x...)
	alpha := append([]float64(nil), c.alpha...)
	zb, z := guarded(c.z)
	ub, u := guarded(c.u)
	nb, n := guarded(c.n)
	settle(c.settle, c.settleVar, x, u, n, z, alpha, c.d)
	checkGuards(t, "the settle", c.d, map[string][]float64{"Z": zb, "U": ub, "N": nb})
	listed := make([]bool, len(c.alpha))
	for _, e := range c.settle {
		listed[e] = true
	}
	for name, pair := range map[string][2][]float64{"X": {x, c.x}, "Z": {z, c.z}, "alpha": {alpha, c.alpha}, "U": {u, c.u}, "N": {n, c.n}} {
		for i := range pair[0] {
			if (name == "U" || name == "N") && listed[i/c.d] {
				continue
			}
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("d=%d: the settle wrote %s[%d]", c.d, name, i)
			}
		}
	}
	return append([]float64(nil), u...), append([]float64(nil), n...)
}

// compareSettle runs both settle bodies on c and compares U and N bit
// for bit.
func compareSettle(t testing.TB, what string, c *combineCase, anyNaN bool) {
	t.Helper()
	gu, gn := runSettle(t, c, settleAVX2)
	wu, wn := runSettle(t, c, settleGo)
	sameCombineBits(t, what+" settle U", gu, wu, anyNaN)
	sameCombineBits(t, what+" settle N", gn, wn, anyNaN)
}

// TestCombineKernelMatchesGo pins the AVX2 combine to the Go loops bit
// for bit for every d it runs (1..5): random CSRs with hubs, isolated
// variables (whose z is the Go loop's 0*(1/0) NaN) and degree-1
// variables, a random subset of them combined, their edges a mix of
// remote blocks and own edges, the empty program included; X, U, the
// inbox, rho, alpha and stale Z and N carry infinities, subnormals,
// signed zeros and NaNs with payloads of their own in the poisoned half.
// Z, U and N sit between guard words, and neither body may write outside
// its write set.
func TestCombineKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 combine on this CPU or architecture")
	}
	rng := rand.New(rand.NewSource(54))
	for d := 1; d <= 5; d++ {
		for i := 0; i < 300; i++ {
			c := randomCombineCase(rng, d, i%2 == 1)
			compareCombine(t, fmt.Sprintf("d=%d case %d (%d vars, %d edges, %d combined)", d, i, c.nv, len(c.edges), len(c.vars)), &c, raceEnabled)
		}
	}
}

// TestSettleKernelMatchesGo pins the AVX2 settle to its Go loop bit for
// bit for every d it runs (1..5), on TestCombineKernelMatchesGo's cases:
// the edges of the variables a case does not combine, the empty list
// included, with the same poisoned values. Z, U and N sit between guard
// words; the settle may write U and N of its listed edges only.
func TestSettleKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 settle on this CPU or architecture")
	}
	rng := rand.New(rand.NewSource(55))
	for d := 1; d <= 5; d++ {
		for i := 0; i < 300; i++ {
			c := randomCombineCase(rng, d, i%2 == 1)
			compareSettle(t, fmt.Sprintf("d=%d case %d (%d vars, %d edges, %d settled)", d, i, c.nv, len(c.edges), len(c.settle)), &c, raceEnabled)
		}
	}
}

// FuzzCombine is TestCombineKernelMatchesGo and
// TestSettleKernelMatchesGo on fuzzed input: d, the variable of every
// edge (a byte per edge, so degrees and isolated variables are the
// fuzzer's), which variables are combined (the others' edges are
// settled) and which of their edges are remote (a mask bit per variable
// and per edge), and X, U, the inbox, Z, N, rho and alpha as raw bits.
func FuzzCombine(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 combine on this CPU or architecture")
	}
	f.Add(uint8(5), uint8(7), []byte("\x00\x00\x01\x03\x03\x03\x05"), []byte("\xff\x5a"), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(2), uint8(3), []byte("\x02\x02\x02\x02"), []byte("\x07\x05"), []byte("\x00\x00\x00\x00\x00\x00\x00\x40\x02\x00\x00\x00\x00\x00\xf8\xff"))
	f.Add(uint8(3), uint8(4), []byte{}, []byte("\x0f"), []byte("\x00\x00\x00\x00\x00\x00\x10\x00"))
	f.Add(uint8(1), uint8(1), []byte("\x00"), []byte("\x01\x00"), []byte("\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(uint8(4), uint8(9), []byte("\x08\x00\x08\x04\x08"), []byte("\xff\xff\x03"), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x03\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, dims, nvars uint8, owners, mask, vals []byte) {
		d, nv := 1+int(dims)%5, 1+int(nvars)%32
		if len(owners) > 256 {
			owners = owners[:256]
		}
		start, edges := combineTopology(nv, len(owners), func(e int) int { return int(owners[e]) % nv })
		bit := 0
		next := func() bool {
			bit++
			if len(mask) == 0 {
				return bit%2 == 0
			}
			return mask[bit/8%len(mask)]>>(bit%8)&1 == 1
		}
		w := 0
		word := func() float64 {
			w++
			if len(vals) < 8 {
				return float64(w%7) - 2.5
			}
			o := 8 * w % (len(vals) &^ 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(vals[o:]))
		}
		vars, src, blocks := combineProgram(start, edges, next, next, func(blocks int) int { return (w + bit) % blocks })
		fill := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = word()
			}
			return out
		}
		ne := len(owners)
		c := combineCase{
			d: d, nv: nv, start: start, edges: edges, vars: vars, src: src,
			in: fill(blocks * d),
			x:  fill(ne * d), u: fill(ne * d), n: fill(ne * d), z: fill(nv * d),
			rho: fill(ne), alpha: fill(ne),
		}
		// A -fuzz run builds the package with coverage instrumentation,
		// which may compile the Go loops with other operand orders, as
		// the race detector's build does; there two NaNs match whatever
		// their payloads. A plain go test run of the seed corpus checks
		// every bit.
		c.settleProgram()
		fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
		what := fmt.Sprintf("d=%d, %d vars, %d edges, %d combined", d, nv, ne, len(vars))
		compareCombine(t, what, &c, raceEnabled || fuzzing)
		compareSettle(t, what, &c, raceEnabled || fuzzing)
	})
}
