package admm

import "time"

// Stopwatch splits one goroutine's wall time into consecutive laps: the
// end of a phase is the start of the next, so a phase boundary costs one
// monotonic clock read (time.Since of a base taken once) where a
// time.Now/time.Since pair per phase costs three, and every nanosecond
// between StartStopwatch and the last Lap lands in exactly one
// accumulator. It is the one phase-timing idiom of the executors and the
// shard loop.
type Stopwatch struct {
	base time.Time
	last time.Duration
}

// StartStopwatch starts the first lap.
func StartStopwatch() Stopwatch { return Stopwatch{base: time.Now()} }

// Lap adds the time since the previous Lap (or the start) to *acc,
// starts the next lap, and returns what it added.
func (s *Stopwatch) Lap(acc *int64) int64 {
	now := time.Since(s.base)
	dt := int64(now - s.last)
	s.last = now
	*acc += dt
	return dt
}
