package admm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// WarmState is a reusable snapshot of the ADMM iterate — the primal
// edge-copies x, the scaled duals u, and the consensus point z. It is
// the warm-start seam for repeated traffic (the bulk pipeline's
// same-shape streams): capture it after a solve, apply it to a fresh or
// cache-reused graph of the same shape, and the next solve continues
// from the previous fixed point instead of from zero.
//
// Only x/u/z are stored. The message arrays m and n are derived state,
// so Apply recomputes them with the reference kernels: n = z_b - u is
// exactly the value the n-update leaves at iteration end (it runs last,
// over the final z and u), and m = x + u is what the next m-update
// would write — every schedule overwrites (or, fused, never reads) M
// before consuming it, so the iterate trajectory after Apply is
// identical to continuing the captured run, regardless of whether the
// capture came from a fused schedule (which never materializes M) or
// the five-phase reference. A graph that has no M yet keeps none.
type WarmState struct {
	X, U, Z []float64
	// edges/vars/d pin the captured shape so Apply can reject a
	// mismatched graph instead of silently corrupting state.
	edges, vars, d int
}

// Captured reports whether the state holds a snapshot.
func (ws *WarmState) Captured() bool { return ws.d != 0 }

// Capture snapshots g's x/u/z into ws, growing its buffers on first use
// and reusing them afterwards (steady-state captures allocate nothing),
// and reports whether it did. A NaN or Inf anywhere in the iterate — a
// diverged solve — is nothing to continue from or to persist: Capture
// then leaves ws empty and returns false.
func (ws *WarmState) Capture(g *graph.Graph) bool {
	if !linalg.AllFinite(g.X) || !linalg.AllFinite(g.U) || !linalg.AllFinite(g.Z) {
		ws.edges, ws.vars, ws.d = 0, 0, 0
		return false
	}
	ws.edges, ws.vars, ws.d = g.NumEdges(), g.NumVariables(), g.D()
	ws.X = append(ws.X[:0], g.X...)
	ws.U = append(ws.U[:0], g.U...)
	ws.Z = append(ws.Z[:0], g.Z...)
	return true
}

// Apply restores the snapshot onto g: x/u/z are copied back and the
// derived message arrays are recomputed (m = x + u where M exists,
// n = z_b - u). The graph must have the shape the snapshot was captured
// from.
func (ws *WarmState) Apply(g *graph.Graph) error {
	if !ws.Captured() {
		return fmt.Errorf("admm: warm state is empty")
	}
	if g.NumEdges() != ws.edges || g.NumVariables() != ws.vars || g.D() != ws.d {
		return fmt.Errorf("admm: warm state shape (%d edges, %d vars, d=%d) does not match graph (%d edges, %d vars, d=%d)",
			ws.edges, ws.vars, ws.d, g.NumEdges(), g.NumVariables(), g.D())
	}
	copy(g.X, ws.X)
	copy(g.U, ws.U)
	copy(g.Z, ws.Z)
	if g.M != nil {
		UpdateMRange(g, 0, g.NumEdges())
	}
	UpdateNRange(g, 0, g.NumEdges())
	return nil
}

// Shape returns the graph shape the snapshot was captured from
// (all zero when nothing is captured).
func (ws *WarmState) Shape() (edges, vars, d int) { return ws.edges, ws.vars, ws.d }

// warmStateVersion tags the binary layout of a marshaled WarmState so a
// future format change is detected instead of misdecoded.
const warmStateVersion = 1

// warmStateMaxDim bounds each marshaled shape dimension. The serving
// layer's workload caps keep real graphs far below this; the bound
// exists so a corrupted length prefix cannot demand a giant allocation
// before the payload-length check rejects it.
const warmStateMaxDim = 1 << 28

// MarshalBinary encodes the snapshot as a self-describing little-endian
// blob: version u8, edges/vars/d u32, then the x, u, z doubles. It
// implements encoding.BinaryMarshaler for the persistent solution store
// (internal/store).
func (ws *WarmState) MarshalBinary() ([]byte, error) {
	if !ws.Captured() {
		return nil, fmt.Errorf("admm: cannot marshal an empty warm state")
	}
	if len(ws.X) != ws.edges*ws.d || len(ws.U) != ws.edges*ws.d || len(ws.Z) != ws.vars*ws.d {
		return nil, fmt.Errorf("admm: warm state arrays (x %d, u %d, z %d) do not match shape (%d edges, %d vars, d=%d)",
			len(ws.X), len(ws.U), len(ws.Z), ws.edges, ws.vars, ws.d)
	}
	buf := make([]byte, 0, 13+8*(len(ws.X)+len(ws.U)+len(ws.Z)))
	buf = append(buf, warmStateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ws.edges))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ws.vars))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ws.d))
	for _, arr := range [][]float64{ws.X, ws.U, ws.Z} {
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a MarshalBinary blob. It never panics on
// malformed input: the shape header must be internally consistent and
// the payload length must match it exactly, so a truncated or corrupted
// blob is rejected before any allocation it could inflate.
func (ws *WarmState) UnmarshalBinary(data []byte) error {
	if len(data) < 13 {
		return fmt.Errorf("admm: warm state blob too short (%d bytes)", len(data))
	}
	if data[0] != warmStateVersion {
		return fmt.Errorf("admm: warm state version %d, want %d", data[0], warmStateVersion)
	}
	edges := int(binary.LittleEndian.Uint32(data[1:]))
	vars := int(binary.LittleEndian.Uint32(data[5:]))
	d := int(binary.LittleEndian.Uint32(data[9:]))
	if d <= 0 || edges <= 0 || vars <= 0 || edges > warmStateMaxDim || vars > warmStateMaxDim || d > warmStateMaxDim {
		return fmt.Errorf("admm: warm state shape (%d edges, %d vars, d=%d) out of range", edges, vars, d)
	}
	xn := int64(edges) * int64(d)
	zn := int64(vars) * int64(d)
	want := 13 + 8*(2*xn+zn)
	if int64(len(data)) != want {
		return fmt.Errorf("admm: warm state blob is %d bytes, shape needs %d", len(data), want)
	}
	ws.edges, ws.vars, ws.d = edges, vars, d
	ws.X = decodeFloats(ws.X, data[13:], int(xn))
	ws.U = decodeFloats(ws.U, data[13+8*xn:], int(xn))
	ws.Z = decodeFloats(ws.Z, data[13+16*xn:], int(zn))
	return nil
}

// decodeFloats fills dst (reusing its capacity) with n little-endian
// doubles from src.
func decodeFloats(dst []float64, src []byte, n int) []float64 {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:])))
	}
	return dst
}
