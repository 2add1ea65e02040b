package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix A = L L^T, for repeated solves.
//
// The factor is kept in panels of four rows, interleaved by column: panel
// p holds rows 4p..4p+3 and starts at element panelAt(p), and its element
// j holds column j of those rows, j = 0 .. 4p+3. A solve reads a panel
// front to back, four rows at a time. The diagonal slots hold the
// reciprocals 1/L[i][i], so no solve divides; the slots above the
// diagonal, and the rows past n in the last panel, stay zero.
type Cholesky struct {
	n   int
	l   [][4]float64
	row []float64 // factor's copy of the row it is solving for
}

// panelAt is the first element of panel p: panel q has 4(q+1) elements.
func panelAt(p int) int { return 2 * p * (p + 1) }

// NewCholesky factors the symmetric positive-definite matrix a (only the
// lower triangle is read). It returns an error if a is not (numerically)
// positive definite.
func NewCholesky(a *Mat) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	c := &Cholesky{n: a.Rows, l: packLower(a), row: make([]float64, a.Rows)}
	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

// packLower copies the lower triangle of the square matrix a into the
// panel layout.
func packLower(a *Mat) [][4]float64 {
	n := a.Rows
	p := make([][4]float64, panelAt((n+3)/4))
	for i := 0; i < n; i++ {
		pan := p[panelAt(i/4):]
		for j, v := range a.Row(i)[:i+1] {
			pan[j][i%4] = v
		}
	}
	return p
}

// factor replaces the lower triangle of A held in c.l by its Cholesky
// factor, in place. Row i of L is the solution of L[:i,:i] l_i = a_i[:i],
// so each row, copied out of its panel, is one call of the forward
// substitution Solve uses; the diagonal follows from
// L[i][i]^2 = a_ii - |l_i|^2.
func (c *Cholesky) factor() error {
	for i := 0; i < c.n; i++ {
		pan, r := c.l[panelAt(i/4):][:i+1], i%4
		row := c.row[:i+1]
		for j := range row {
			row[j] = pan[j][r]
		}
		forwardSolve(c.l, i, row)
		aii := row[i]
		s := aii
		for _, v := range row[:i] {
			s -= float64(v * v)
		}
		// Relative pivot tolerance: exact-arithmetic-singular matrices
		// can yield tiny positive pivots under roundoff. The negated form
		// also rejects a NaN pivot.
		if !(s > 1e-13*math.Abs(aii)) {
			return fmt.Errorf("linalg: matrix not positive definite (pivot %d = %g)", i, s)
		}
		row[i] = 1 / math.Sqrt(s)
		for j, v := range row {
			pan[j][r] = v
		}
	}
	return nil
}

// forwardSolve overwrites b[:m] with the solution y of L[:m,:m] y = b[:m],
// where l is a factor whose first m rows are final. The whole panels run
// in the AVX2 kernel where the CPU has one, the rows of a partial panel
// in Go. Either way row i subtracts L[i][k] y[k] in ascending k, each
// product rounded before the subtraction, so both give the same bits.
func forwardSolve(l [][4]float64, m int, b []float64) {
	i := 0
	if useAVX2 && m >= 4 {
		forwardAVX2(&l[0], &b[0], m/4)
		i = m &^ 3
	}
	forwardGo(l, i, m, b)
}

// forwardGo solves rows i..m-1 of L y = b, given y[:i] in b[:i]; i is a
// multiple of four. Four rows of a panel advance together: each loaded
// y[k] feeds four independent accumulators, which hides the latency of
// the dependent subtract chain a single row would be bound by.
func forwardGo(l [][4]float64, i, m int, b []float64) {
	for ; i+4 <= m; i += 4 {
		pan := l[panelAt(i/4):][:i+4]
		t := b[i : i+4]
		s0, s1, s2, s3 := t[0], t[1], t[2], t[3]
		for k, yk := range b[:i] {
			c := &pan[k]
			s0 -= float64(c[0] * yk)
			s1 -= float64(c[1] * yk)
			s2 -= float64(c[2] * yk)
			s3 -= float64(c[3] * yk)
		}
		// The 4x4 triangle on the diagonal, column by column.
		d := pan[i:]
		s0 *= d[0][0]
		s1 = (s1 - float64(d[0][1]*s0)) * d[1][1]
		s2 = (s2 - float64(d[0][2]*s0) - float64(d[1][2]*s1)) * d[2][2]
		s3 = (s3 - float64(d[0][3]*s0) - float64(d[1][3]*s1) - float64(d[2][3]*s2)) * d[3][3]
		t[0], t[1], t[2], t[3] = s0, s1, s2, s3
	}
	// The rows of a partial panel, one at a time.
	for ; i < m; i++ {
		pan, r := l[panelAt(i/4):][:i+1], i%4
		s := b[i]
		for k, yk := range b[:i] {
			s -= float64(pan[k][r] * yk)
		}
		b[i] = s * pan[i][r]
	}
}

// backwardSolve overwrites b[:n] with the solution x of L^T x = b[:n].
// It is the axpy form: once x[i] is known, L[i][k] x[i] is subtracted
// from every b[k] above it, so the pass streams the panels as forwardSolve
// does, backwards, where the dot-product form would walk a column. The
// rows of a partial last panel retire one at a time in Go, the whole
// panels four at a time in the AVX2 kernel where the CPU has one, else in
// Go. Either way each b[k] takes its subtractions in descending row order,
// each product rounded first, so both give the same bits.
func backwardSolve(l [][4]float64, n int, b []float64) {
	i := n
	for ; i%4 != 0; i-- {
		pan, r := l[panelAt((i-1)/4):][:i], (i-1)%4
		x := b[i-1] * pan[i-1][r]
		b[i-1] = x
		for k := range b[:i-1] {
			b[k] -= float64(pan[k][r] * x)
		}
	}
	if useAVX2 && i > 0 {
		backwardAVX2(&l[0], &b[0], i/4)
		return
	}
	backwardGo(l, i, b)
}

// backwardGo solves L^T x = b over the whole panels of rows 0..i-1, i a
// multiple of four, once b[:i] has taken the rows below. A panel retires
// its four rows together, so each b[k] is loaded and stored once per four
// multiply-adds, and the updates of different k are independent.
func backwardGo(l [][4]float64, i int, b []float64) {
	for ; i > 0; i -= 4 {
		j := i - 4 // the panel's first row
		pan := l[panelAt(j/4):][:i]
		t := b[j:i]
		// The 4x4 triangle on the diagonal, last row first.
		d := pan[j:]
		x3 := t[3] * d[3][3]
		x2 := (t[2] - float64(d[2][3]*x3)) * d[2][2]
		x1 := (t[1] - float64(d[1][3]*x3) - float64(d[1][2]*x2)) * d[1][1]
		x0 := (t[0] - float64(d[0][3]*x3) - float64(d[0][2]*x2) - float64(d[0][1]*x1)) * d[0][0]
		t[0], t[1], t[2], t[3] = x0, x1, x2, x3
		for k, yk := range b[:j] {
			c := &pan[k]
			b[k] = yk - float64(c[3]*x3) - float64(c[2]*x2) - float64(c[1]*x1) - float64(c[0]*x0)
		}
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
	q   [][4]float64 // lower triangle of Q in the factor's panel layout
	ch  Cholesky     // factor of Q + rho I, valid only when ok
	rho float64
	ok  bool
}

// NewRidge copies the lower triangle of the square matrix q.
func NewRidge(q *Mat) (*Ridge, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: Ridge needs square matrix, got %dx%d", q.Rows, q.Cols)
	}
	p := packLower(q)
	ch := Cholesky{n: q.Rows, l: make([][4]float64, len(p)), row: make([]float64, q.Rows)}
	return &Ridge{q: p, ch: ch}, nil
}

// Bytes is the heap the Ridge keeps: Q's lower triangle, the factor and
// the factor's row.
func (r *Ridge) Bytes() int64 { return 32*int64(cap(r.q)+cap(r.ch.l)) + 8*int64(cap(r.ch.row)) }

// Solve overwrites b with (Q + rho I)^{-1} b. It returns an error if
// Q + rho I is not positive definite.
func (r *Ridge) Solve(rho float64, b []float64) error {
	if !r.ok || r.rho != rho {
		r.ok = false
		l := r.ch.l
		copy(l, r.q)
		for i := 0; i < r.ch.n; i++ {
			l[panelAt(i/4)+i][i%4] += rho
		}
		if err := r.ch.factor(); err != nil {
			return err
		}
		r.rho, r.ok = rho, true
	}
	r.ch.Solve(b)
	return nil
}
