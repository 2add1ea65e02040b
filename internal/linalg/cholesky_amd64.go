package linalg

// useAVX2 is true where the CPU has AVX2 and the OS saves the YMM
// registers across context switches; then forwardSolve and backwardSolve
// run their whole panels in cholesky_amd64.s, and Project its whole
// blocks in affine_amd64.s. Tests turn it off to run the Go loops.
var useAVX2 bool

// AVX2 reports whether the AVX2 kernels run: the CPU has AVX2 and the OS
// saves the YMM registers. Other packages' kernels consult it in place of
// a detection of their own.
func AVX2() bool { return useAVX2 }

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM state.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	useAVX2 = b&avx2 != 0
}

// forwardAVX2 solves the first 4*panels rows of L y = b in place, as
// forwardGo does; l and b point at element 0.
//
//go:noescape
func forwardAVX2(l *[4]float64, b *float64, panels int)

// backwardAVX2 solves L^T x = b over the first 4*panels rows in place,
// as backwardGo does, once b has taken the rows below them.
//
//go:noescape
func backwardAVX2(l *[4]float64, b *float64, panels int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
