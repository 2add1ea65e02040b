package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix A = L L^T, for repeated solves.
//
// The factor is a packed lower triangle: row i starts at i(i+1)/2 and
// holds L[i][0..i-1] followed by the reciprocal 1/L[i][i], so a solve
// reads n(n+1)/2 contiguous doubles per pass and never divides.
type Cholesky struct {
	n int
	l []float64 // packed rows; the diagonal slots hold reciprocals
}

// NewCholesky factors the symmetric positive-definite matrix a (only the
// lower triangle is read). It returns an error if a is not (numerically)
// positive definite.
func NewCholesky(a *Mat) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	c := &Cholesky{n: a.Rows, l: packLower(a)}
	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

// packLower copies the lower triangle of the square matrix a into packed
// row-major form.
func packLower(a *Mat) []float64 {
	n := a.Rows
	p := make([]float64, n*(n+1)/2)
	o := 0
	for i := 0; i < n; i++ {
		copy(p[o:o+i+1], a.Row(i))
		o += i + 1
	}
	return p
}

// factor replaces the packed lower triangle of A held in c.l by its
// Cholesky factor, in place. Row i of L is the solution of
// L[:i,:i] l_i = a_i[:i], so each row is one call of the same blocked
// forward substitution Solve uses; the diagonal follows from
// L[i][i]^2 = a_ii - |l_i|^2.
func (c *Cholesky) factor() error {
	l := c.l
	o := 0
	for i := 0; i < c.n; i++ {
		row := l[o : o+i+1]
		forwardSolve(l, i, row)
		aii := row[i]
		s := aii
		for _, v := range row[:i] {
			s -= v * v
		}
		// Relative pivot tolerance: exact-arithmetic-singular matrices
		// can yield tiny positive pivots under roundoff. The negated form
		// also rejects a NaN pivot.
		if !(s > 1e-13*math.Abs(aii)) {
			return fmt.Errorf("linalg: matrix not positive definite (pivot %d = %g)", i, s)
		}
		row[i] = 1 / math.Sqrt(s)
		o += i + 1
	}
	return nil
}

// forwardSolve overwrites b[:m] with the solution y of L[:m,:m] y = b[:m],
// where l is a packed factor with reciprocal diagonal whose first m rows
// are final. Four rows advance together: each loaded y[k] feeds four
// independent accumulators, which hides the latency of the dependent
// subtract chain a single row would be bound by, and quarters the loads
// of y.
func forwardSolve(l []float64, m int, b []float64) {
	i, o := 0, 0
	for ; i+4 <= m; i += 4 {
		o1 := o + i + 1
		o2 := o1 + i + 2
		o3 := o2 + i + 3
		y := b[:i]
		r0 := l[o : o+i+1]
		r1 := l[o1 : o1+i+2]
		r2 := l[o2 : o2+i+3]
		r3 := l[o3 : o3+i+4]
		t := b[i : i+4]
		s0, s1, s2, s3 := t[0], t[1], t[2], t[3]
		p0, p1, p2, p3 := r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
		for k, yk := range y {
			s0 -= p0[k] * yk
			s1 -= p1[k] * yk
			s2 -= p2[k] * yk
			s3 -= p3[k] * yk
		}
		// The 4x4 triangle on the diagonal.
		s0 *= r0[i]
		s1 = (s1 - r1[i]*s0) * r1[i+1]
		s2 = (s2 - r2[i]*s0 - r2[i+1]*s1) * r2[i+2]
		s3 = (s3 - r3[i]*s0 - r3[i+1]*s1 - r3[i+2]*s2) * r3[i+3]
		t[0], t[1], t[2], t[3] = s0, s1, s2, s3
		o = o3 + i + 4
	}
	for ; i < m; i++ {
		r := l[o : o+i+1]
		s := b[i]
		for k, yk := range b[:i] {
			s -= r[k] * yk
		}
		b[i] = s * r[i]
		o += i + 1
	}
}

// backwardSolve overwrites b[:n] with the solution x of L^T x = b[:n].
// It is the axpy form: once x[i] is known, row i of L — contiguous in the
// packed layout — is subtracted from the right-hand sides above it, so
// the pass streams the same rows as forwardSolve, backwards, where the
// dot-product form would walk a column with a growing stride. Four rows
// retire together so each b[k] is loaded and stored once per four
// multiply-adds, and the updates of different k are independent.
func backwardSolve(l []float64, n int, b []float64) {
	i := n
	o := n * (n + 1) / 2 // one past row i-1
	for ; i%4 != 0; i-- {
		o -= i
		r := l[o : o+i]
		x := b[i-1] * r[i-1]
		b[i-1] = x
		for k, v := range r[:i-1] {
			b[k] -= v * x
		}
	}
	for ; i > 0; i -= 4 {
		// Rows i-4 .. i-1, called 0 .. 3 below; j is the first of them.
		j := i - 4
		o3 := o - i
		o2 := o3 - (i - 1)
		o1 := o2 - (i - 2)
		o0 := o1 - (i - 3)
		r0 := l[o0 : o0+j+1]
		r1 := l[o1 : o1+j+2]
		r2 := l[o2 : o2+j+3]
		r3 := l[o3 : o3+j+4]
		t := b[j : j+4]
		x3 := t[3] * r3[j+3]
		x2 := (t[2] - r3[j+2]*x3) * r2[j+2]
		x1 := (t[1] - r3[j+1]*x3 - r2[j+1]*x2) * r1[j+1]
		x0 := (t[0] - r3[j]*x3 - r2[j]*x2 - r1[j]*x1) * r0[j]
		t[0], t[1], t[2], t[3] = x0, x1, x2, x3
		y := b[:j]
		for k, yk := range y {
			y[k] = yk - r3[k]*x3 - r2[k]*x2 - r1[k]*x1 - r0[k]*x0
		}
		o = o0
	}
}

// Solve solves A x = b in place: on return, b holds x.
func (c *Cholesky) Solve(b []float64) {
	if len(b) != c.n {
		panic("linalg: Cholesky.Solve length mismatch")
	}
	forwardSolve(c.l, c.n, b)
	backwardSolve(c.l, c.n, b)
}

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }

// SolveSPD is a convenience that factors a (symmetric positive definite)
// and solves a single right-hand side, returning a fresh solution slice.
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	ch.Solve(x)
	return x, nil
}

// Ridge solves (Q + rho I) x = b for a fixed symmetric positive
// semidefinite Q and a penalty rho that changes rarely: the shape of the
// ADMM x-update for a quadratic term, where rho is constant across
// iterations unless an adaptive scheme moves it. The factor is kept for
// the last rho and rebuilt into the same buffer when rho changes, so no
// solve allocates.
type Ridge struct {
	q   []float64 // packed lower triangle of Q
	ch  Cholesky  // factor of Q + rho I, valid only when ok
	rho float64
	ok  bool
}

// NewRidge copies the lower triangle of the square matrix q.
func NewRidge(q *Mat) (*Ridge, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: Ridge needs square matrix, got %dx%d", q.Rows, q.Cols)
	}
	p := packLower(q)
	return &Ridge{q: p, ch: Cholesky{n: q.Rows, l: make([]float64, len(p))}}, nil
}

// Bytes is the heap the Ridge keeps: Q's packed triangle and the factor.
func (r *Ridge) Bytes() int64 { return 8 * int64(cap(r.q)+cap(r.ch.l)) }

// Solve overwrites b with (Q + rho I)^{-1} b. It returns an error if
// Q + rho I is not positive definite.
func (r *Ridge) Solve(rho float64, b []float64) error {
	if !r.ok || r.rho != rho {
		r.ok = false
		l := r.ch.l
		copy(l, r.q)
		o := 0
		for i := 0; i < r.ch.n; i++ {
			o += i + 1
			l[o-1] += rho
		}
		if err := r.ch.factor(); err != nil {
			return err
		}
		r.rho, r.ok = rho, true
	}
	r.ch.Solve(b)
	return nil
}
