package linalg

import "fmt"

// AffineProjector computes weighted projections onto an affine subspace
// {v : C v = d}. Given per-coordinate weights rho (the ADMM edge
// penalties), the projection solves
//
//	argmin_v  sum_i rho_i/2 (v_i - n_i)^2   s.t.  C v = d
//
// whose closed form is v = n - W C^T (C W C^T)^{-1} (C n - d) with
// W = diag(1/rho). The C matrix is fixed at construction; the weights are
// fixed by Precompute, which stores the gain K = W C^T (C W C^T)^{-1} so
// that Project is dst = src - K (C src - d) with no solve and no division.
//
// This is the workhorse behind the MPC linear-dynamics proximal operator
// (paper Appendix B) and the generic affine-equality operator in
// internal/prox.
type AffineProjector struct {
	C *Mat      // m x n constraint matrix
	D []float64 // length m right-hand side

	// cblk and gain are C and the gain K^T for the weights last passed to
	// Precompute (nil until then), in blocks of four rows. cblk is
	// column-major inside a block: rows 4b..4b+3 of column j are element
	// b*n+j. gain cuts each block into groups of four columns: the gain of
	// row 4b+i on column j is lane j%4 of element b*nr+j&^3+i, with nr the
	// column count rounded up to a multiple of four. A projection reads
	// each block front to back once, with the four residuals of a block in
	// registers, and subtracts four columns at a time. Slots past row m or
	// column n stay zero.
	cblk, gain [][4]float64
}

// NewAffineProjector builds a projector for {v : C v = d}. C must have
// full row rank for the projection to be well defined; rank deficiency
// surfaces as a factorization error at Precompute time.
func NewAffineProjector(c *Mat, d []float64) (*AffineProjector, error) {
	if len(d) != c.Rows {
		return nil, fmt.Errorf("linalg: affine projector rhs length %d != rows %d", len(d), c.Rows)
	}
	dd := make([]float64, len(d))
	copy(dd, d)
	return &AffineProjector{C: c, D: dd}, nil
}

// Precompute forms the gain for fixed weights rho (len n). Subsequent
// Project calls only read the projector, so once Precompute has returned
// any number of goroutines may Project through it, each with its own dst.
// This is the common case in the ADMM, where per-edge rho is constant
// across iterations.
func (p *AffineProjector) Precompute(rho []float64) error {
	m, n := p.C.Rows, p.C.Cols
	if len(rho) != n {
		return fmt.Errorf("linalg: affine projector got %d weights, want %d", len(rho), n)
	}
	for i, r := range rho {
		if r <= 0 {
			return fmt.Errorf("linalg: nonpositive weight rho[%d]=%g", i, r)
		}
	}
	// The Gram matrix G = C W C^T (lower triangle).
	g := NewMat(m, m)
	for i := 0; i < m; i++ {
		ci := p.C.Row(i)
		for k := 0; k <= i; k++ {
			ck := p.C.Row(k)
			var s float64
			for j, cij := range ci {
				s += cij * ck[j] / rho[j]
			}
			g.Data[i*m+k] = s
		}
	}
	ch, err := NewCholesky(g)
	if err != nil {
		return fmt.Errorf("linalg: affine projector gram factorization: %w", err)
	}
	// G is symmetric, so row j of K = W C^T G^{-1} is G^{-1} applied to
	// row j of W C^T. K is kept transposed: Project then subtracts m
	// scaled rows from v, n independent updates per row (four columns to
	// a group), where K itself would give n short dependent sums.
	blocks, nr := (m+3)/4, (n+3)&^3
	cblk := make([][4]float64, blocks*n)
	gain := make([][4]float64, blocks*nr)
	kj := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := range kj {
			kj[i] = p.C.Data[i*n+j] / rho[j]
		}
		ch.Solve(kj)
		for i, kji := range kj {
			cblk[i/4*n+j][i%4] = p.C.Data[i*n+j]
			gain[i/4*nr+j&^3+i%4][j&3] = kji
		}
	}
	p.cblk, p.gain = cblk, gain
	return nil
}

// Project writes to dst the weighted projection of src onto the subspace,
// using the weights passed to Precompute. src is only read; dst and src
// must both have length C.Cols and must not overlap (every residual is
// taken from the unprojected point, so an in-place call would be wrong
// from the second block on).
func (p *AffineProjector) Project(dst, src []float64) {
	if p.cblk == nil {
		panic("linalg: AffineProjector.Project before Precompute")
	}
	m, n := p.C.Rows, p.C.Cols
	if len(dst) != n || len(src) != n {
		panic("linalg: AffineProjector.Project length mismatch")
	}
	if n > 0 && &dst[0] == &src[0] {
		panic("linalg: AffineProjector.Project in place")
	}
	if m == 0 {
		copy(dst, src)
		return
	}
	// Element by element the arithmetic is that of the plain two loops
	// (all residuals, then the rows subtracted in order): each residual
	// sums its columns in ascending order, each v_j loses its gain terms
	// in ascending row order. Every product is rounded before it is added,
	// so no architecture fuses the two. The AVX2 kernel runs every whole
	// block in the same order, the Go loops the rest.
	from := src // the first block starts from src, later ones go on from dst
	b := 0
	if useAVX2 && m >= 4 { // Precompute has C full row rank, so n >= m
		projectAVX2(&p.cblk[0], &p.gain[0], &p.D[0], &src[0], &dst[0], n, m/4)
		b, from = m&^3, dst
	}
	nr := (n + 3) &^ 3
	for ; b+4 <= m; b += 4 {
		c, k := p.cblk[b/4*n:][:n], p.gain[b/4*nr:][:nr]
		r0, r1, r2, r3 := -p.D[b], -p.D[b+1], -p.D[b+2], -p.D[b+3]
		for j, s := range src {
			cj := &c[j]
			r0 += float64(cj[0] * s)
			r1 += float64(cj[1] * s)
			r2 += float64(cj[2] * s)
			r3 += float64(cj[3] * s)
		}
		for j, v := range from {
			kg, l := (*[4][4]float64)(k), j&3
			v -= float64(kg[0][l] * r0)
			v -= float64(kg[1][l] * r1)
			v -= float64(kg[2][l] * r2)
			v -= float64(kg[3][l] * r3)
			dst[j] = v
			if l == 3 {
				k = k[4:] // the next group of four columns
			}
		}
		from = dst
	}
	if b == m {
		return
	}
	// The 1-3 rows left when m is not a multiple of four.
	c, k := p.cblk[b/4*n:], p.gain[b/4*nr:]
	var r [3]float64
	for i := range r[:m-b] {
		s := -p.D[b+i]
		for j, sj := range src {
			s += float64(c[j][i] * sj)
		}
		r[i] = s
	}
	for j, v := range from {
		kg := (*[4][4]float64)(k[j&^3:])
		for i, ri := range r[:m-b] {
			v -= float64(kg[i][j&3] * ri)
		}
		dst[j] = v
	}
}

// Residual returns max_i |(C v - d)_i|, a feasibility measure.
func (p *AffineProjector) Residual(v []float64) float64 {
	r := make([]float64, p.C.Rows)
	p.C.MulVec(r, v)
	for i := range r {
		r[i] -= p.D[i]
	}
	return MaxAbs(r)
}
