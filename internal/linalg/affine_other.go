//go:build !amd64

package linalg

func projectAVX2(c, gain *[4]float64, d, src, dst *float64, n, blocks int) {
	panic("linalg: no AVX2 kernel on this architecture")
}
