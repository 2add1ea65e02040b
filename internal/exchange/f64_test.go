package exchange

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// withF64Loops runs f on the element-loop codec and restores the
// build's choice.
func withF64Loops(f func()) {
	saved := f64Copy
	f64Copy = false
	defer func() { f64Copy = saved }()
	f()
}

// f64Edges are the doubles whose bits a codec could disturb: signed
// zeros, infinities, quiet and signalling NaNs with payloads and either
// sign, subnormals and the extremes.
var f64Edges = []uint64{
	0, 1 << 63, // +0, -0
	0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, // ±Inf
	0x7ff8_0000_0000_0000, 0x7ff8_dead_beef_0001, 0xfff8_0000_0000_0042, // quiet NaNs
	0x7ff0_0000_0000_0001, 0xfff4_0000_0000_0000, // signalling NaNs
	1, 0x000f_ffff_ffff_ffff, 0x8000_0000_0000_0001, // subnormals
	0x0010_0000_0000_0000, 0x7fef_ffff_ffff_ffff, 0x3ff0_0000_0000_0000, // smallest normal, max, 1
}

// checkF64Bodies fails unless both codec bodies encode vals, appended
// after a one-byte prefix, to the little-endian bytes of their bits,
// and decode those bytes — from an offset that leaves them unaligned —
// back to the same bits, through decodeF64s and CopyF64s alike.
func checkF64Bodies(t *testing.T, what string, vals []float64) {
	t.Helper()
	want := []byte{0xa5}
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	var loopEnc []byte
	withF64Loops(func() { loopEnc = AppendF64s([]byte{0xa5}, vals) })
	copyEnc := AppendF64s([]byte{0xa5}, vals)
	if !bytes.Equal(loopEnc, want) || !bytes.Equal(copyEnc, want) {
		t.Fatalf("%s: element loops encode %x, one copy %x, want %x", what, loopEnc, copyEnc, want)
	}
	decode := func(loops bool) ([]float64, []float64) {
		viaDecode := make([]float64, len(vals))
		viaCopy := make([]float64, len(vals))
		run := func() {
			decodeF64s(viaDecode, append(want[1:], 0xff, 0xff)) // a longer payload, as the z frame hands it
			if err := CopyF64s(viaCopy, want[1:]); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if loops {
			withF64Loops(run)
		} else {
			run()
		}
		return viaDecode, viaCopy
	}
	for _, loops := range []bool{true, false} {
		viaDecode, viaCopy := decode(loops)
		for i, v := range vals {
			if a, b := math.Float64bits(viaDecode[i]), math.Float64bits(viaCopy[i]); a != math.Float64bits(v) || b != a {
				t.Fatalf("%s (element loops %v): double %d decodes to %#x and %#x, want %#x", what, loops, i, a, b, math.Float64bits(v))
			}
		}
	}
}

// TestF64CodecBodiesAgree pins the one-copy float row codec to the
// element loops it replaces on little-endian targets: the same bytes
// for every double, and the same bits back, on every edge value and on
// random bit patterns of lengths 0 to 64.
func TestF64CodecBodiesAgree(t *testing.T) {
	if !f64Copy {
		t.Skip("no one-copy float codec on this architecture")
	}
	edges := make([]float64, len(f64Edges))
	for i, b := range f64Edges {
		edges[i] = math.Float64frombits(b)
	}
	checkF64Bodies(t, "edge values", edges)
	checkF64Bodies(t, "empty row", nil)
	rng := rand.New(rand.NewSource(58))
	for n := 0; n <= 64; n++ {
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = edges[rng.Intn(len(edges))]
			} else {
				vals[i] = math.Float64frombits(rng.Uint64())
			}
		}
		checkF64Bodies(t, "random row", vals)
	}
	withF64Loops(func() {
		if err := CopyF64s(make([]float64, 2), make([]byte, 15)); err == nil {
			t.Fatal("element loops: CopyF64s took 15 bytes for 2 doubles")
		}
	})
	if err := CopyF64s(make([]float64, 2), make([]byte, 17)); err == nil {
		t.Fatal("one copy: CopyF64s took 17 bytes for 2 doubles")
	}
}
