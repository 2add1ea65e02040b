//go:build race

package admm

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true
