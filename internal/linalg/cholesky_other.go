//go:build !amd64

package linalg

// useAVX2 is false off amd64: the Go loops are the only path.
var useAVX2 = false

// AVX2 reports whether the AVX2 kernels run: never off amd64.
func AVX2() bool { return false }

func forwardAVX2(l *[4]float64, b *float64, panels int) {
	panic("linalg: no AVX2 kernel on this architecture")
}

func backwardAVX2(l *[4]float64, b *float64, panels int) {
	panic("linalg: no AVX2 kernel on this architecture")
}
