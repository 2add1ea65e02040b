package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements the host-to-device image of a factor-graph: the
// paper's copyGraphFromCPUtoGPU materializes the topology, parameters and
// all ADMM state into GPU global memory. Here the same information is
// serialized into a flat byte image; internal/gpusim charges a modeled
// PCIe transfer time proportional to len(image) (paper: up to 450 s for
// the N=5000 packing graph), and tests round-trip the image to prove it
// is complete.
//
// Proximal operators are compiled code, not data — exactly as in the
// paper, where the kernels reference function pointers — so Decode takes
// the operator list from the caller.

const serialMagic = uint64(0x70_61_72_41_44_4d_4d_31) // "parADMM1"

// EncodedSize returns the size in bytes of the device image of g without
// building it.
func (g *Graph) EncodedSize() int {
	g.mustFinal()
	return encodedSize(g.d, g.NumFunctions(), g.NumVariables(), g.NumEdges())
}

// encodedSize is the image size of a graph with the given shape.
func encodedSize(d, nF, nV, nE int) int {
	header := 8 + 4*8
	ints := (nF + 1 + nE + nV + 1 + nE) * 8
	floats := (2*nE + 4*nE*d + nV*d) * 8
	return header + ints + floats
}

// Encode serializes the finalized graph (topology, parameters, and all
// ADMM state) into a device image. An absent M is written as zeros, so
// the image has one layout whether or not a five-phase consumer ever
// allocated it.
func (g *Graph) Encode() []byte {
	g.mustFinal()
	buf := make([]byte, 0, g.EncodedSize())
	w := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w(serialMagic)
	w(uint64(g.d))
	w(uint64(g.NumFunctions()))
	w(uint64(g.NumVariables()))
	w(uint64(g.NumEdges()))
	wi := func(xs []int) {
		for _, x := range xs {
			w(uint64(x))
		}
	}
	wf := func(xs []float64) {
		for _, x := range xs {
			w(math.Float64bits(x))
		}
	}
	wi(g.fEdgeStart)
	wi(g.edgeVar)
	wi(g.vEdgeStart)
	wi(g.vEdges)
	wf(g.Rho)
	wf(g.Alpha)
	wf(g.X)
	if g.M != nil {
		wf(g.M)
	} else {
		buf = append(buf, make([]byte, 8*g.NumEdges()*g.d)...)
	}
	wf(g.U)
	wf(g.N)
	wf(g.Z)
	return buf
}

// Decode reconstructs a graph from a device image produced by Encode.
// ops supplies the proximal operators in function-node order; its length
// must match the encoded function count. The header's counts are checked
// against len(data) before anything is allocated, so a hostile header
// cannot ask for more memory than the image it came in. An all-zero M
// section decodes to an absent M.
func Decode(data []byte, ops []Op) (*Graph, error) {
	const header = 5 * 8
	if len(data) < header {
		return nil, fmt.Errorf("graph: device image is %d bytes, shorter than its header", len(data))
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	if word(0) != serialMagic {
		return nil, errors.New("graph: bad magic in device image")
	}
	// Every count is bounded by the image's word count before any
	// arithmetic on it, so the size formula below cannot overflow.
	words := uint64(len(data) / 8)
	d64, nF64, nV64, nE64 := word(1), word(2), word(3), word(4)
	if d64 == 0 || nF64 == 0 || nV64 == 0 || nE64 == 0 ||
		d64 > words || nF64 > words || nV64 > words || nE64 > words ||
		nE64 > words/d64 || nV64 > words/d64 {
		return nil, fmt.Errorf("graph: corrupt image header (d=%d F=%d V=%d E=%d) for a %d-byte image", d64, nF64, nV64, nE64, len(data))
	}
	d, nF, nV, nE := int(d64), int(nF64), int(nV64), int(nE64)
	if want := encodedSize(d, nF, nV, nE); len(data) != want {
		return nil, fmt.Errorf("graph: device image is %d bytes, its header declares %d", len(data), want)
	}
	if len(ops) != nF {
		return nil, fmt.Errorf("graph: decode got %d ops, image has %d functions", len(ops), nF)
	}
	next := header / 8
	ri := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(word(next + i))
		}
		next += n
		return out
	}
	rf := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(word(next + i))
		}
		next += n
		return out
	}
	g := &Graph{d: d, numVars: nV, ops: append([]Op(nil), ops...)}
	g.fEdgeStart = ri(nF + 1)
	g.edgeVar = ri(nE)
	g.vEdgeStart = ri(nV + 1)
	g.vEdges = ri(nE)
	g.Rho = rf(nE)
	g.Alpha = rf(nE)
	g.X = rf(nE * d)
	if m := data[8*next : 8*(next+nE*d)]; bytes.Count(m, []byte{0}) == len(m) {
		next += nE * d
	} else {
		g.M = rf(nE * d)
	}
	g.U = rf(nE * d)
	g.N = rf(nE * d)
	g.Z = rf(nV * d)
	g.finalized = true
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decoded image invalid: %w", err)
	}
	return g, nil
}
