//go:build !amd64

package exchange

func combineAVX2(vars, start, edges []int, src []int32, in, x, u, n, z, rho, alpha []float64, d int) {
	panic("exchange: no AVX2 combine on this architecture")
}

func settleAVX2(edges, vars []int32, x, u, n, z, alpha []float64, d int) {
	panic("exchange: no AVX2 settle on this architecture")
}
