package graph_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/admm"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/prox"
)

// FuzzGraphDecode feeds graph.Decode arbitrary device images. Decode
// must not panic, must allocate in proportion to the bytes it was given
// (a header cannot ask for more than its image), and any image it
// accepts must re-encode to itself. The seeds are real images — an mpc
// graph after five-phase iterations (M allocated and nonzero), a packing
// graph and a small graph that never allocated M — and a header that
// declares 2^40 edges.
//
// Run as a regression suite by plain `go test` over the seed corpus;
// run `go test -fuzz=FuzzGraphDecode -fuzzminimizetime=1s ./internal/graph`
// to explore. Images are kilobytes, and the engine's default minimization
// budget (60 s for every new interesting input) would leave a short run
// no time to fuzz.
func FuzzGraphDecode(f *testing.F) {
	mp, err := mpc.Build(mpc.Config{K: 3})
	if err != nil {
		f.Fatal(err)
	}
	var nanos [admm.NumPhases]int64
	admm.NewSerial().Iterate(mp.Graph, 3, &nanos)
	f.Add(mp.Graph.Encode())

	pk, err := packing.Build(packing.Config{N: 3})
	if err != nil {
		f.Fatal(err)
	}
	pk.InitRandom(rand.New(rand.NewSource(1)))
	f.Add(pk.Graph.Encode())

	small := graph.New(2)
	small.AddNode(prox.Identity{}, 0, 1)
	small.AddNode(prox.Identity{}, 1)
	if err := small.Finalize(); err != nil {
		f.Fatal(err)
	}
	small.InitRandom(-1, 1, rand.New(rand.NewSource(2)))
	img := small.Encode()
	f.Add(img)

	huge := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(huge[32:], 1<<40) // the edge count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hand Decode as many operators as the header claims functions,
		// when that is a count the image could hold.
		var ops []graph.Op
		if len(data) >= 24 {
			if nF := binary.LittleEndian.Uint64(data[16:]); nF <= uint64(len(data)/8) {
				ops = make([]graph.Op, nF)
				for i := range ops {
					ops[i] = prox.Identity{}
				}
			}
		}
		// The fuzzing engine allocates on other goroutines of this
		// process, so a decode is charged the smaller of two runs.
		grown := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			graph.Decode(data, ops)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		if a := min(grown(), grown()); a > 4*uint64(len(data))+16<<10 {
			t.Fatalf("Decode of a %d-byte image allocated %d bytes", len(data), a)
		}
		g, err := graph.Decode(data, ops)
		if err != nil {
			return
		}
		if !bytes.Equal(g.Encode(), data) {
			t.Fatal("an accepted image does not re-encode to itself")
		}
	})
}
