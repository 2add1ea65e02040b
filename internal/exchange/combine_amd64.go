package exchange

// combineAVX2 runs combineGo over the boundary variables vars for
// 1 <= d <= 5.
//
//go:noescape
func combineAVX2(vars, start, edges []int, src []int32, in, x, u, n, z, rho, alpha []float64, d int)

// settleAVX2 runs settleGo over edges and their variables for
// 1 <= d <= 5.
//
//go:noescape
func settleAVX2(edges, vars []int32, x, u, n, z, alpha []float64, d int)
