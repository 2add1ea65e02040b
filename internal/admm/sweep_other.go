//go:build !amd64

package admm

func zunAVX2(start, edges []int, x, u, n, z, rho, alpha []float64, d, lo, hi int) {
	panic("admm: no AVX2 sweep on this architecture")
}
