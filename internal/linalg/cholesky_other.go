//go:build !amd64

package linalg

// useAVX2 is false off amd64: the Go loops are the only path.
var useAVX2 = false

func forwardAVX2(l *[4]float64, b *float64, panels int) {
	panic("linalg: no AVX2 kernel on this architecture")
}

func backwardAVX2(l *[4]float64, b *float64, panels int) {
	panic("linalg: no AVX2 kernel on this architecture")
}
