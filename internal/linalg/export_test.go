package linalg

import "testing"

// forceGo makes forwardSolve, backwardSolve and Project run the Go loops
// in place of the AVX2 kernels until the test ends.
func forceGo(t testing.TB) {
	saved := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = saved })
}

// ForceGo is forceGo for the external tests, which run whole solves on
// each path.
var ForceGo = forceGo
