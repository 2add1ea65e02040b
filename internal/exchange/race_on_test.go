//go:build race

package exchange

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true
