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
// that Project is v -= K (C v - d) with no solve and no division.
//
// This is the workhorse behind the MPC linear-dynamics proximal operator
// (paper Appendix B) and the generic affine-equality operator in
// internal/prox.
type AffineProjector struct {
	C *Mat      // m x n constraint matrix
	D []float64 // length m right-hand side

	// gain is K^T for K = W C^T (C W C^T)^{-1}, m x n row-major, for the
	// weights last passed to Precompute (nil until then). With it a
	// projection is v -= K (C v - d): two small matrix-vector products, no
	// solve.
	gain []float64
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
// any number of goroutines may Project through it, each with its own v
// and scratch. This is the common case in the ADMM, where per-edge rho is
// constant across iterations.
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
	// row j of W C^T. K is kept transposed (m x n): Project then
	// subtracts m scaled rows from v, n independent updates per row, where
	// K itself would give n short dependent sums.
	gain := make([]float64, m*n)
	kj := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := range kj {
			kj[i] = p.C.Data[i*n+j] / rho[j]
		}
		ch.Solve(kj)
		for i, kji := range kj {
			gain[i*n+j] = kji
		}
	}
	p.gain = gain
	return nil
}

// Project overwrites v with the weighted projection of v onto the
// subspace, using the weights passed to Precompute. scratch must have
// length >= C.Rows and is clobbered.
func (p *AffineProjector) Project(v, scratch []float64) {
	if p.gain == nil {
		panic("linalg: AffineProjector.Project before Precompute")
	}
	n := p.C.Cols
	if len(v) != n {
		panic("linalg: AffineProjector.Project length mismatch")
	}
	r := scratch[:p.C.Rows]
	for i := range r {
		s := -p.D[i]
		for j, cij := range p.C.Data[i*n : (i+1)*n] {
			s += cij * v[j]
		}
		r[i] = s
	}
	for i, ri := range r {
		for j, kij := range p.gain[i*n : (i+1)*n] {
			v[j] -= kij * ri
		}
	}
}

// ProjectWeighted projects v with the weights rho (len n): Precompute
// followed by Project, so rho also becomes the projector's fixed weights.
// Use Precompute+Project directly when weights are static.
func (p *AffineProjector) ProjectWeighted(v, rho []float64) error {
	if err := p.Precompute(rho); err != nil {
		return err
	}
	p.Project(v, make([]float64, p.C.Rows))
	return nil
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
