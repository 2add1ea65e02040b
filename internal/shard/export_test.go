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
