//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package exchange

import "unsafe"

// f64Copy selects the one-copy float row codec: on a little-endian
// target a []float64 already holds the wire's bytes, so a row encodes
// and decodes as one copy. Tests turn it off to run the element loops.
var f64Copy = true

// f64Bytes is vals' memory as bytes.
func f64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}
