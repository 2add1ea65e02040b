package repro

import (
	"testing"
	_ "unsafe" // go:linkname

	_ "repro/internal/admm"
)

// sweepAVX2 is admm's choice of the AVX2 sweep, which the root tests
// turn off to run the conformance matrix on the Go loops.
//
//go:linkname sweepAVX2 repro/internal/admm.sweepAVX2
var sweepAVX2 bool

// ForceGoSweep makes admm.UpdateZUNRange run the Go loops in place of
// the AVX2 sweep until the test ends, and reports whether the sweep was
// on.
func ForceGoSweep(t testing.TB) bool {
	saved := sweepAVX2
	sweepAVX2 = false
	t.Cleanup(func() { sweepAVX2 = saved })
	return saved
}
