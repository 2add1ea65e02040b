package shard

import (
	"testing"
	"time"
)

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
