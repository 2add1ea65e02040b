//go:build !race

package linalg

// raceEnabled reports whether the race detector is compiled in; the
// instrumented build orders the Go loops' multiply operands its own way,
// so which of two NaN payloads a product keeps is that build's choice.
const raceEnabled = false
