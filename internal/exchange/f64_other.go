//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package exchange

// f64Copy is false on a big-endian target: a float row's memory is not
// the wire's byte order, so rows go element by element.
var f64Copy = false

func f64Bytes(vals []float64) []byte {
	panic("exchange: no one-copy float codec on a big-endian architecture")
}
