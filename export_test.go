package repro

import (
	"testing"
	_ "unsafe" // go:linkname

	_ "repro/internal/admm"
	_ "repro/internal/exchange"
)

// sweepAVX2 is admm's choice of the AVX2 sweep and combineAVX2
// exchange's of the AVX2 boundary combine, which the root tests turn
// off to run the conformance matrix on the Go loops.
//
//go:linkname sweepAVX2 repro/internal/admm.sweepAVX2
var sweepAVX2 bool

//go:linkname combineAVX2 repro/internal/exchange.useAVX2
var combineAVX2 bool

// ForceGoSweep makes admm.UpdateZUNRange and exchange.Mailbox.Combine
// run the Go loops in place of their AVX2 kernels until the test ends,
// and reports whether either kernel was on.
func ForceGoSweep(t testing.TB) bool {
	sweep, combine := sweepAVX2, combineAVX2
	sweepAVX2, combineAVX2 = false, false
	t.Cleanup(func() { sweepAVX2, combineAVX2 = sweep, combine })
	return sweep || combine
}
