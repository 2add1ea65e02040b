package admm

// zunAVX2 runs zunGo's small-d path over variables [lo, hi) for
// 1 <= d <= 5, on the CSR (start, edges) and the graph's arrays.
//
//go:noescape
func zunAVX2(start, edges []int, x, u, n, z, rho, alpha []float64, d, lo, hi int)
