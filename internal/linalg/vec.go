// Package linalg provides the dense linear-algebra substrate used by the
// proximal operators and problem builders in this repository.
//
// The ADMM inner loops evaluate proximal operators millions of times, so
// every routine on that path works on caller-provided slices and does not
// allocate. Two kernels carry the x-update of the dense workloads and are
// written for the machine rather than for brevity.
//
// Cholesky (and Ridge, which refactors Q + rho I into the same buffers
// when rho moves) serves the lasso blocks, n = 128 and 32 factors per
// graph. A solve is bound by the bytes of the factor it streams and by
// the latency of a dependent subtract chain, so:
//
//   - the factor is a packed lower triangle, n(n+1)/2 doubles and not
//     n^2, with reciprocals on the diagonal: half the bytes, and no
//     divisions in a solve;
//   - the forward substitution advances four rows at a time, so each
//     loaded b[k] feeds four independent accumulators;
//   - the backward substitution is in axpy form: with x[i] known, row i
//     of L is subtracted from the right-hand sides above it. The textbook
//     form takes a dot product down column i, a stride that grows with
//     the row in packed storage (and is n in full storage, a cache line
//     per element); the axpy form walks the same contiguous rows as the
//     forward pass, backwards, straight after that pass brought them into
//     cache. It too retires four rows per sweep of b.
//
// The factorization needs no kernel of its own: row i of L is the forward
// substitution of row i of A against the rows above it.
//
// AffineProjector serves the mpc dynamics nodes, a 4x10 constraint
// evaluated once per node per iteration. Precompute folds the Gram
// factorization into a gain matrix, so a projection is two small
// matrix-vector products, with no triangular solve and no division. C is
// stored four rows to a block, column by column, and the gain in the same
// blocks cut into groups of four columns, so the residuals are one pass
// with a block's four accumulators in registers and the update one pass
// that subtracts the block's four gain rows from four columns at a time.
//
// On amd64 CPUs whose CPUID and XGETBV report AVX2 with the YMM state
// saved by the OS, both kernels run their bulk in assembly, four doubles
// to a register: cholesky_amd64.s the whole panels of the forward and
// backward substitutions, affine_amd64.s the whole four-row blocks of a
// projection, the last n%4 columns through masked loads and stores. Each
// product is its own multiply and each update its own add or subtract,
// never fused, with the operands in the order the Go compiler emits for
// the Go loops, so the assembly gives the Go loops' bits, NaN payloads
// included. The Go loops are the only path on other CPUs and
// architectures, and the tests' oracle; they round every product
// explicitly, so no compiler fuses a multiply-add into them either.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// large components by scaling.
func Norm2(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm2Sq returns the squared Euclidean norm of v.
func Norm2Sq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dist2 length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// AxpyTo computes dst = a + alpha*x elementwise. dst, a and x must have
// equal length; dst may alias a or x.
func AxpyTo(dst, a, x []float64, alpha float64) {
	if len(dst) != len(a) || len(a) != len(x) {
		panic("linalg: AxpyTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + alpha*x[i]
	}
}

// ScaleTo computes dst = alpha*x. dst may alias x.
func ScaleTo(dst, x []float64, alpha float64) {
	if len(dst) != len(x) {
		panic("linalg: ScaleTo length mismatch")
	}
	for i := range dst {
		dst[i] = alpha * x[i]
	}
}

// AddTo computes dst = a + b elementwise.
func AddTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("linalg: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// SubTo computes dst = a - b elementwise.
func SubTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("linalg: SubTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// MaxAbs returns the largest absolute value in v, or 0 for an empty slice.
func MaxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SoftThreshold returns the scalar soft-thresholding operator
// sign(x)*max(|x|-t, 0), the proximal map of t*|x|.
func SoftThreshold(x, t float64) float64 {
	switch {
	case x > t:
		return x - t
	case x < -t:
		return x + t
	default:
		return 0
	}
}

// AllFinite reports whether every element of v is finite (not NaN/Inf).
// One integer test per element — the exponent field is all ones exactly
// for NaN and ±Inf — because a bulk record that took no residual check
// runs it over a whole iterate.
func AllFinite(v []float64) bool {
	const exp = 0x7ff << 52
	for _, x := range v {
		if math.Float64bits(x)&exp == exp {
			return false
		}
	}
	return true
}
