package linalg

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// eachPath runs f on the AVX2 kernels, where the CPU has them, and on
// the Go loops.
func eachPath(t *testing.T, f func(t *testing.T)) {
	if useAVX2 {
		t.Run("avx2", f)
	}
	t.Run("go", func(t *testing.T) {
		forceGo(t)
		f(t)
	})
}

// oddValue draws the value a right-hand side or a poisoned factor entry
// carries: usually a normal number, else an infinity, a subnormal, a
// signed zero, a value whose products overflow, or a quiet or signalling
// NaN with a payload of its own, so that a multiply or a subtract meets
// two NaNs whose payloads tell which operand came first.
func oddValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
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
	case 7:
		return math.Float64frombits(0x7ff0000000000000 | (rng.Uint64()&(1<<51-1) | 1))
	}
	return rng.NormFloat64()
}

// solveBits factors a, solves every right-hand side, and solves them
// again on the factor with some entries replaced by odd values; it
// returns the factor and the solutions, on whichever path is selected.
func solveBits(t testing.TB, a *Mat, rhs [][]float64, poison []int, odd []float64) ([][4]float64, [][]float64) {
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Cholesky{n: ch.n, l: append([][4]float64(nil), ch.l...)}
	for i, e := range poison {
		bad.l[e/4][e%4] = odd[i]
	}
	var out [][]float64
	for _, c := range []*Cholesky{ch, bad} {
		for _, b := range rhs {
			x := append([]float64(nil), b...)
			c.Solve(x)
			out = append(out, x)
		}
	}
	return ch.l, out
}

// sameBits reports the first element where two solves differ in any bit.
// Under the race detector two NaNs match whatever their payloads: the
// instrumented Go loops keep other operands' payloads than the default
// build's, which the kernels match.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	sameBitsNaN(t, what, got, want, raceEnabled)
}

// sameBitsNaN is sameBits with two NaNs matching whatever their payloads
// when anyNaN is set.
func sameBitsNaN(t testing.TB, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x (%g) on the AVX2 kernels, %#x (%g) on the Go loops",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestCholeskyKernelsMatchGo pins the AVX2 kernels to the Go loops bit
// for bit: the factor, and solves whose right-hand sides, and for half of
// them factor entries too, carry infinities, subnormals and NaNs with
// distinct payloads. n runs over every size to 70, so every count of
// leftover panels and partial-panel rows meets every count of four-panel
// passes it can, and the lasso size 128.
func TestCholeskyKernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this CPU or architecture")
	}
	type problem struct {
		a      *Mat
		rhs    [][]float64
		poison []int
		odd    []float64
	}
	rng := rand.New(rand.NewSource(27))
	var problems []problem
	for n := 0; n <= 71; n++ {
		if n == 71 {
			n = 128
		}
		p := problem{a: randSPD(rng, n)}
		for trial := 0; trial < 6; trial++ {
			b := randVec(rng, n)
			for i := range b {
				if trial > 0 && rng.Intn(4) == 0 {
					b[i] = oddValue(rng)
				}
			}
			p.rhs = append(p.rhs, b)
		}
		// Poison entries of the lower triangle, the diagonal included.
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			j := rng.Intn(i + 1)
			p.poison = append(p.poison, 4*(panelAt(i/4)+j)+i%4)
			p.odd = append(p.odd, oddValue(rng))
		}
		problems = append(problems, p)
	}
	factors := make([][][4]float64, len(problems))
	sols := make([][][]float64, len(problems))
	for i, p := range problems {
		factors[i], sols[i] = solveBits(t, p.a, p.rhs, p.poison, p.odd)
	}
	forceGo(t)
	for i, p := range problems {
		n := p.a.Rows
		factor, want := solveBits(t, p.a, p.rhs, p.poison, p.odd)
		for e := range factor {
			sameBits(t, fmt.Sprintf("n=%d factor element %d", n, e), factors[i][e][:], factor[e][:])
		}
		for s := range want {
			sameBits(t, fmt.Sprintf("n=%d solve %d", n, s), sols[i][s], want[s])
		}
	}
}

// FuzzCholeskySolve is TestCholeskyKernelsMatchGo on fuzzed input: n,
// the lower triangle handed to the factorization, and a factor and a
// right-hand side taken as raw bits. The factor is used as it is, every
// slot of every panel filled, so a kernel that read a slot outside the
// triangle would show too. A failed factorization must fail alike and
// leave the same bits behind.
func FuzzCholeskySolve(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 kernels on this CPU or architecture")
	}
	f.Add(uint8(8), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f"), []byte("\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(19), []byte("\x00\x00\x00\x00\x00\x00\x00\x40\x02\x00\x00\x00\x00\x00\xf8\xff"), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x03\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(33), []byte{}, []byte("\x00\x00\x00\x00\x00\x00\x10\x00"))
	f.Fuzz(func(t *testing.T, size uint8, entries, rhs []byte) {
		n := int(size) % 72
		word := func(src []byte, i int) float64 {
			if len(src) < 8 {
				return float64(i%7) - 2.5
			}
			o := 8 * i % (len(src) &^ 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(src[o:]))
		}
		run := func() (factor [][4]float64, x []float64, err error) {
			// Factor a matrix with the fuzzed lower triangle, made
			// diagonally dominant where the entries are small.
			a := NewMat(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					a.Data[i*n+j] = word(entries, i*n+j)
				}
				a.Data[i*n+i] += float64(4 * n)
			}
			c := &Cholesky{n: n, l: packLower(a), row: make([]float64, n)}
			err = c.factor()
			// Solve on the raw bits as a factor.
			raw := &Cholesky{n: n, l: make([][4]float64, panelAt((n+3)/4))}
			for e := range raw.l {
				for r := range raw.l[e] {
					raw.l[e][r] = word(entries, 4*e+r+1)
				}
			}
			x = make([]float64, n)
			for i := range x {
				x[i] = word(rhs, i)
			}
			raw.Solve(x)
			return c.l, x, err
		}
		factor, x, err := run()
		forceGo(t)
		wantFactor, want, wantErr := run()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("factor: %v on the AVX2 kernels, %v on the Go loops", err, wantErr)
		}
		for e := range wantFactor {
			sameBits(t, fmt.Sprintf("n=%d factor element %d", n, e), factor[e][:], wantFactor[e][:])
		}
		sameBits(t, fmt.Sprintf("n=%d solve", n), x, want)
	})
}

// rawProjector returns an m x n projector whose cblk, gain and D are
// drawn by draw, set without Precompute, so any m and n will do: the
// kernel must match the Go loops on whatever a gain holds. The slots
// past row m or column n are drawn too when dead is set, and stay zero,
// as Precompute leaves them, when it is not.
func rawProjector(m, n int, dead bool, draw func() float64) *AffineProjector {
	blocks, nr := (m+3)/4, (n+3)&^3
	p := &AffineProjector{
		C:    &Mat{Rows: m, Cols: n, Data: make([]float64, m*n)},
		D:    make([]float64, m),
		cblk: make([][4]float64, blocks*n),
		gain: make([][4]float64, blocks*nr),
	}
	for i := range p.D {
		p.D[i] = draw()
	}
	for b := 0; b < blocks; b++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < nr; j++ {
				if live := 4*b+i < m && j < n; !live && !dead {
					continue
				}
				if j < n {
					p.cblk[b*n+j][i] = draw()
				}
				p.gain[b*nr+j&^3+i][j&3] = draw()
			}
		}
	}
	return p
}

// projectGuarded projects src through p into a dst that sits between
// guard words, and fails if Project wrote a guard or src. src is copied
// into a buffer whose words past n are NaNs of their own, so a residual
// that read past src[:n] would show in dst.
func projectGuarded(t testing.TB, p *AffineProjector, src []float64) []float64 {
	t.Helper()
	const guard = 0x7ff4_dead_beef_0001
	n := len(src)
	in := make([]float64, n+4)
	out := make([]float64, n+8)
	for i := range in[n:] {
		in[n+i] = math.Float64frombits(guard + uint64(i))
	}
	for i := range out {
		out[i] = math.Float64frombits(guard + uint64(i))
	}
	copy(in, src)
	dst := out[4 : 4+n]
	p.Project(dst, in[:n])
	for i, v := range out {
		if (i < 4 || i >= 4+n) && math.Float64bits(v) != guard+uint64(i) {
			t.Fatalf("%dx%d: Project wrote word %d outside dst", p.C.Rows, n, i-4)
		}
	}
	for i, v := range in {
		if i < n && math.Float64bits(v) != math.Float64bits(src[i]) || i >= n && math.Float64bits(v) != guard+uint64(i-n) {
			t.Fatalf("%dx%d: Project wrote src word %d", p.C.Rows, n, i)
		}
	}
	return append([]float64(nil), dst...)
}

// TestAffineKernelMatchesGo pins the AVX2 projection to the Go loops bit
// for bit: m = 1..12 rows, so none, one and two whole blocks, the second
// going on from dst, each with and without a row tail, and n = 1..24
// columns, so every column tail, mpc's n = 10 among them. C, the gain, D
// and src carry infinities, subnormals, signed zeros and NaNs with
// payloads of their own; dst starts stale and sits between guard words.
func TestAffineKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this CPU or architecture")
	}
	type problem struct {
		p   *AffineProjector
		src [][]float64
	}
	rng := rand.New(rand.NewSource(52))
	var problems []problem
	for m := 1; m <= 12; m++ {
		for n := 1; n <= 24; n++ {
			for _, poisoned := range []bool{false, true} {
				draw := rng.NormFloat64
				if poisoned {
					draw = func() float64 {
						if rng.Intn(4) == 0 {
							return oddValue(rng)
						}
						return rng.NormFloat64()
					}
				}
				pr := problem{p: rawProjector(m, n, poisoned, draw)}
				for trial := 0; trial < 3; trial++ {
					src := make([]float64, n)
					for j := range src {
						src[j] = draw()
					}
					pr.src = append(pr.src, src)
				}
				problems = append(problems, pr)
			}
		}
	}
	got := make([][][]float64, len(problems))
	for i, pr := range problems {
		for _, src := range pr.src {
			got[i] = append(got[i], projectGuarded(t, pr.p, src))
		}
	}
	forceGo(t)
	for i, pr := range problems {
		for s, src := range pr.src {
			want := projectGuarded(t, pr.p, src)
			sameBits(t, fmt.Sprintf("%dx%d problem %d src %d", pr.p.C.Rows, pr.p.C.Cols, i, s), got[i][s], want)
		}
	}
}

// FuzzAffineProject is TestAffineKernelMatchesGo on fuzzed input: m and
// n, and C, the gain, D and src taken as raw bits, every slot of every
// block filled, dead ones included, so a kernel that let a slot past row
// m or column n into the result would show too.
func FuzzAffineProject(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 kernels on this CPU or architecture")
	}
	f.Add(uint8(4), uint8(10), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f"), []byte("\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(9), uint8(6), []byte("\x00\x00\x00\x00\x00\x00\x00\x40\x02\x00\x00\x00\x00\x00\xf8\xff"), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x03\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(8), uint8(23), []byte{}, []byte("\x00\x00\x00\x00\x00\x00\x10\x00"))
	f.Fuzz(func(t *testing.T, rows, cols uint8, entries, vec []byte) {
		m, n := 1+int(rows)%12, 1+int(cols)%24
		word := func(src []byte, i int) float64 {
			if len(src) < 8 {
				return float64(i%7) - 2.5
			}
			o := 8 * i % (len(src) &^ 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(src[o:]))
		}
		e := 0
		p := rawProjector(m, n, true, func() float64 { e++; return word(entries, e) })
		src := make([]float64, n)
		for j := range src {
			src[j] = word(vec, j)
		}
		got := projectGuarded(t, p, src)
		forceGo(t)
		// A -fuzz run builds the package with coverage instrumentation,
		// under which Project's residual loop adds r1..r3 to their
		// products the other way round, as the race detector's build
		// does; there too two NaNs match whatever their payloads. A plain
		// go test run of the seed corpus checks every bit.
		fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
		sameBitsNaN(t, fmt.Sprintf("%dx%d", m, n), got, projectGuarded(t, p, src), raceEnabled || fuzzing)
	})
}
