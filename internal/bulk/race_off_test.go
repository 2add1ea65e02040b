//go:build !race

package bulk

// raceEnabled reports whether the race detector is compiled in; the
// steady-state allocation gate is meaningless under -race because the
// runtime makes sync.Pool drop items at random to widen interleavings.
const raceEnabled = false
