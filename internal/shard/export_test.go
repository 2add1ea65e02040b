package shard

import (
	"testing"
	"time"
	_ "unsafe" // go:linkname

	_ "repro/internal/exchange"
)

// combineAVX2 is exchange's choice of the AVX2 boundary combine, which
// BenchmarkBoundaryCombine turns off to time the Go loops.
//
//go:linkname combineAVX2 repro/internal/exchange.useAVX2
var combineAVX2 bool

// forceCombineAVX2 runs the calling test or benchmark with the AVX2
// combine on or off.
func forceCombineAVX2(t testing.TB, on bool) {
	saved := combineAVX2
	combineAVX2 = on
	t.Cleanup(func() { combineAVX2 = saved })
}

// shrinkLiveness runs the calling test under a liveness rule of tick
// and bound in place of tickEvery and livenessBound.
func shrinkLiveness(t testing.TB, tick, bound time.Duration) {
	liveTick.Store(int64(tick))
	liveBound.Store(int64(bound))
	t.Cleanup(func() {
		liveTick.Store(int64(tickEvery))
		liveBound.Store(int64(livenessBound))
	})
}

// ShrinkLivenessBound is shrinkLiveness at the default tick, for the
// external shard_test files: no extra Tick frame joins a session.
func ShrinkLivenessBound(t testing.TB, bound time.Duration) { shrinkLiveness(t, tickEvery, bound) }
