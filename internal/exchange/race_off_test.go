//go:build !race

package exchange

// raceEnabled reports whether the race detector is compiled in; the
// instrumented build may order the Go loops' operands its own way, so
// which of two NaN payloads an operation keeps is that build's choice.
const raceEnabled = false
